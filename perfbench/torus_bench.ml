(* The two torus workloads: a closed loop of [Local.Runner.run] calls
   on one generated, tag-marked 2-D torus with packed PROD ids
   (Prop. 5.3) drawn from the run seed.

   - torus-color-cold: the Theta(log* n) 9-coloring at side 96, no
     memo. Simulation-bound: almost all time is the Iterative
     re-simulation inside [algo.run].
   - torus-echo-memo: the O(1) dimension echo at side 1024 (n = 2^20,
     a working set beyond the L3) with the view memo. The algorithm is
     free, so time goes to per-node engine work. *)

open Meter

type spec = {
  side : int;
  memo : bool;
  problem : Lcl.Problem.t;
  algo : base:int -> Local.Algorithm.t;
}

let color_cold =
  {
    side = 96;
    memo = false;
    problem = Grid.Problems.torus_coloring ~d:2;
    algo = (fun ~base -> Grid.Algorithms.torus_coloring ~d:2 ~base);
  }

let echo_memo =
  {
    side = 1024;
    memo = true;
    problem = Grid.Problems.dimension_echo ~d:2;
    algo = (fun ~base:_ -> Grid.Algorithms.dimension_echo);
  }

type inputs = { g : Graph.t; ids : int array; algo : Local.Algorithm.t; n : int }

let generate spec ~seed =
  let t =
    Grid.Problems.mark_tag_inputs (Grid.Torus.make [| spec.side; spec.side |])
  in
  let p = Grid.Torus.prod_ids ~seed t in
  let g = Grid.Torus.graph t in
  { g; ids = p.Grid.Torus.packed; algo = spec.algo ~base:p.Grid.Torus.base;
    n = Graph.n g }

(* Pinned to one domain and one process, so LCL_DOMAINS/LCL_WORKERS
   cannot change what is measured. *)
let run spec inp ~seed =
  Local.Runner.run ~seed ~ids:(`Fixed inp.ids) ~domains:1 ~workers:1
    ~memo:spec.memo ~problem:spec.problem inp.algo inp.g

(* Order-sensitive fold over every half-edge label. *)
let digest labeling =
  Array.fold_left
    (fun h row ->
      Array.fold_left
        (fun h x -> ((h * 31) + x) land max_int)
        ((h * 17) + Array.length row)
        row)
    0 labeling

(* A run is correct when it has no violations, labels exactly as the
   reference run on the same ids did, and (memo) accounts for every
   node as either a memo hit or a newly stored view. *)
let check spec inp ~reference (o : Local.Runner.outcome) =
  o.Local.Runner.violations = []
  && digest o.Local.Runner.labeling = reference
  && ((not spec.memo)
     || o.Local.Runner.stats.Local.Runner.cache_hits
        + o.Local.Runner.stats.Local.Runner.distinct_views
        = inp.n)

(* One set-up: inputs, graph and three warm-up runs; the first run's
   labeling becomes the reference digest. Three runs rather than one
   keep set-up mostly computation: a lone run plus the graph build,
   which page-faults in a fresh heap, moved 37% between two sets of
   ten runs where the timed runs moved 16%. *)
let warmup_runs = 3

let setup spec ~seed =
  let inp = generate spec ~seed in
  let o = run spec inp ~seed in
  let reference = digest o.Local.Runner.labeling in
  let ok = ref (check spec inp ~reference o) in
  for _ = 2 to warmup_runs do
    ok := !ok && check spec inp ~reference (run spec inp ~seed)
  done;
  (inp, reference, !ok)

(* -- traced replay ------------------------------------------------------- *)

(* Per-op sums, in ns and counts, of the layers [Runner.run] calls:
   the replay goes through the same public functions in the same
   order, timing each call from here. *)
type acc = {
  mutable ops : int;
  mutable prng : int;
  mutable extract : int;
  mutable extract_calls : int;
  mutable view_nodes : int;
  mutable algo_ns : int;
  mutable algo_calls : int;
  mutable fingerprint : int;
  mutable probe : int;
  mutable probes : int;
  mutable hits : int;
  mutable verify : int;
  mutable replay_wall : int;
  mutable clock_reads : int;
  mutable real : int;
  mutable minor : float;
  mutable promoted : float;
  mutable major : int;
}

let replay spec inp ~seed acc =
  let c = Lazy.force clock_cost_ns in
  let now_ns () =
    acc.clock_reads <- acc.clock_reads + 1;
    now_ns ()
  in
  let n = inp.n and g = inp.g and ids = inp.ids and algo = inp.algo in
  let w0 = now_ns () in
  let t0 = now_ns () in
  let rng = Util.Prng.create ~seed in
  let rand = Array.init n (fun _ -> Util.Prng.next_int64 rng) in
  acc.prng <- acc.prng + (now_ns () - t0 - c);
  let radius = algo.Local.Algorithm.radius ~n in
  let labeling = Array.make n [||] in
  let table = Util.Keytab.create () in
  let simulate v =
    let a = now_ns () in
    let ball, _ =
      Graph.Ball.extract ~reuse:true g ~ids ~rand ~n_declared:n v ~radius
    in
    let b = now_ns () in
    let out = algo.Local.Algorithm.run ball in
    let d = now_ns () in
    acc.extract <- acc.extract + (b - a - c);
    acc.extract_calls <- acc.extract_calls + 1;
    acc.view_nodes <- acc.view_nodes + ball.Graph.Ball.size;
    acc.algo_ns <- acc.algo_ns + (d - b - c);
    acc.algo_calls <- acc.algo_calls + 1;
    out
  in
  for v = 0 to n - 1 do
    let out =
      if not spec.memo then simulate v
      else begin
        let a = now_ns () in
        let kv = Graph.Ball.fingerprint_view_of g ~ids ~n_declared:n v ~radius in
        let b = now_ns () in
        let found =
          Util.Keytab.find table ~hash:kv.Graph.Ball.kv_hash
            kv.Graph.Ball.kv_words ~len:kv.Graph.Ball.kv_len
        in
        let d = now_ns () in
        acc.fingerprint <- acc.fingerprint + (b - a - c);
        acc.probe <- acc.probe + (d - b - c);
        acc.probes <- acc.probes + 1;
        match found with
        | Some out ->
          acc.hits <- acc.hits + 1;
          Array.copy out
        | None ->
          let hash = kv.Graph.Ball.kv_hash in
          let key = Array.sub kv.Graph.Ball.kv_words 0 kv.Graph.Ball.kv_len in
          let out = simulate v in
          let a = now_ns () in
          Util.Keytab.add table ~hash key (Array.copy out);
          acc.probe <- acc.probe + (now_ns () - a - c);
          out
      end
    in
    if Array.length out <> Graph.degree g v then
      failwith "replay: algorithm output arity differs from the node degree";
    labeling.(v) <- out
  done;
  let t0 = now_ns () in
  let violations = Lcl.Verify.violations spec.problem g labeling in
  let t1 = now_ns () in
  acc.verify <- acc.verify + (t1 - t0 - c);
  acc.replay_wall <- acc.replay_wall + (t1 - w0);
  (digest labeling, violations = [])

(* -- the workload ---------------------------------------------------------- *)

type result = {
  setups : float list;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* Set-up [setups] times and keep the last; [setup_s] is the median.
   The first set-up is timed from process start. Between set-ups the
   previous inputs are dropped and the heap compacted, so each set-up
   pays the same allocation. *)
let repeat_setup ~setups spec ~seed =
  let times = ref [] and refs = ref [] and ok = ref true in
  let rec go k =
    let t0 = if k = 0 then process_start else now_s () in
    let inp, reference, good = setup spec ~seed in
    times := (now_s () -. t0) :: !times;
    refs := reference :: !refs;
    ok := !ok && good;
    if k + 1 < setups then begin
      Gc.compact ();
      go (k + 1)
    end
    else (inp, reference)
  in
  let inp, reference = go 0 in
  let same = List.for_all (( = ) reference) !refs in
  (inp, reference, !ok && same, List.rev !times)

let measure spec ~seed ~seconds ~trace ~setups =
  let inp, reference, setup_ok, setup_times = repeat_setup ~setups spec ~seed in
  let n = inp.n in
  note "workload: n=%d side=%d memo=%b seed=%d" n spec.side spec.memo seed;
  let attempted = ref 0 and failed = ref 0 in
  let lat = ref [] and gcs = ref [] in
  let acc =
    { ops = 0; prng = 0; extract = 0; extract_calls = 0; view_nodes = 0;
      algo_ns = 0; algo_calls = 0; fingerprint = 0; probe = 0; probes = 0;
      hits = 0; verify = 0; replay_wall = 0; clock_reads = 0; real = 0;
      minor = 0.; promoted = 0.; major = 0 }
  in
  let t_start = now_s () in
  let deadline = t_start +. seconds in
  let replay_checked () =
    match replay spec inp ~seed acc with
    | d, clean -> clean && d = reference
    | exception e ->
      note "replay %d raised %s" !attempted (Printexc.to_string e);
      false
  in
  while now_s () < deadline do
    incr attempted;
    (* the replay runs before the real call on odd operations and after
       it on even ones, so neither side always meets a cache the other
       warmed *)
    let replay_first = trace && !attempted land 1 = 1 in
    let before = (not replay_first) || replay_checked () in
    let g0 = gc_now () in
    let t0 = now_ns () in
    match run spec inp ~seed with
    | o ->
      let dt = now_ns () - t0 in
      let gd = gc_diff g0 (gc_now ()) in
      let after = (not trace) || replay_first || replay_checked () in
      lat := ms_of_ns dt :: !lat;
      gcs := gd :: !gcs;
      acc.ops <- acc.ops + 1;
      acc.real <- acc.real + dt;
      acc.minor <- acc.minor +. gd.minor_words;
      acc.promoted <- acc.promoted +. gd.promoted_words;
      acc.major <- acc.major + gd.major;
      if not (before && after && check spec inp ~reference o) then incr failed
    | exception e ->
      incr failed;
      note "run %d raised %s" !attempted (Printexc.to_string e)
  done;
  let wall = now_s () -. t_start in
  let completed = !attempted - !failed in
  if not setup_ok then incr failed;
  let minor_mb = List.map (fun d -> mb_of_words d.minor_words) !gcs in
  note "runs: %d attempted, %d failed, wall %.3f s; over the whole phase \
        %.3f runs/s, %.0f nodes/s" !attempted !failed wall
    (float_of_int completed /. wall)
    (float_of_int (n * completed) /. wall);
  note "Runner.run ms (%d runs): %s" (List.length !lat) (spread_line !lat);
  note "gc per run: minor %.2f..%.2f MB, promoted %.2f MB, major %d (last run)"
    (List.fold_left min infinity minor_mb)
    (List.fold_left max neg_infinity minor_mb)
    (match !gcs with d :: _ -> mb_of_words d.promoted_words | [] -> 0.)
    (match !gcs with d :: _ -> d.major | [] -> 0);
  let ops = float_of_int (max 1 acc.ops) in
  let per_op ns = ms_of_ns ns /. ops in
  let metrics =
    if not trace then
      [
        (* the fastest run: see Meter.peak_rate *)
        ("peak_requests_per_s", peak_rate ~requests:1 !lat);
        ("peak_rss_mb", peak_rss_mb "self");
      ]
    else
      let layers =
        acc.prng + acc.extract + acc.algo_ns + acc.fingerprint + acc.probe
        + acc.verify
      in
      [
        ("algo.run_ms", per_op acc.algo_ns);
        ("algo.invocations", float_of_int acc.algo_calls /. ops);
        ("ball.extract_ms", per_op acc.extract);
        ("ball.extract_calls", float_of_int acc.extract_calls /. ops);
        ("ball.view_nodes", float_of_int acc.view_nodes /. ops);
        ("ball.fingerprint_ms", per_op acc.fingerprint);
        ("keytab.probe_ms", per_op acc.probe);
        ("keytab.probes", float_of_int acc.probes /. ops);
        ("keytab.hit_ratio",
         if acc.probes = 0 then 0.
         else float_of_int acc.hits /. float_of_int acc.probes);
        ("prng.derive_ms", per_op acc.prng);
        ("verify.check_ms", per_op acc.verify);
        ("runner.residual_ms", per_op (acc.real - layers));
        ("runner.run_ms", per_op acc.real);
        ("gc.minor_mb", mb_of_words acc.minor /. ops);
        ("gc.promoted_mb", mb_of_words acc.promoted /. ops);
        ("gc.major_collections", float_of_int acc.major /. ops);
        ("trace.overhead_pct",
         trace_overhead_pct ~clock_reads:acc.clock_reads
           ~replay_ns:acc.replay_wall);
      ]
  in
  { setups = setup_times; attempted = !attempted; failed = !failed; metrics }
