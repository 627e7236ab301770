(* Executing LOCAL algorithms on a host graph: assign identifiers and
   per-node randomness, extract each node's radius-T ball, run the
   algorithm everywhere, and hand the assembled half-edge labeling to
   the verifier.

   The per-node simulation — the O(n · Δ^T) hot path every experiment
   funnels through — runs on the deterministic chunked parallel engine
   of [Util.Parallel] (worker count from [?domains], default from
   $LCL_DOMAINS, 1 = sequential); results are assembled in index order,
   so the labeling is bit-identical to the sequential run for any
   worker count.

   There is one execution core, [execute]. The plain [run] and the
   resilient [run_resilient] are projections of it that differ only in
   the failure policy they pass: [Raise] (no plan, a failure
   propagates, the memo may serve) or [Record] (a compiled fault plan;
   a failure becomes a per-node status).

   [?memo] adds a canonical-view cache: each node's view is keyed by
   its [Graph.Ball.fingerprint] ([order_type]-normalized structure with
   randomness erased) and the algorithm's output is reused for repeated
   views. On graphs with few distinct local views (grids, regular
   trees: the order-invariance machinery of Def. 2.7 / Lemma 4.2 is
   exactly what bounds their count) this removes most algorithm
   invocations. Sound only for deterministic order-invariant
   algorithms, hence off by default. *)

type stats = {
  balls_extracted : int;   (* views examined, one per live node *)
  cache_hits : int;        (* algorithm invocations saved by the memo *)
  distinct_views : int;    (* canonical views ADDED by this run (0 if
                              off) — a shared cross-run [memo_cache]
                              reports only its growth, not its size *)
  domains_used : int;      (* worker domains of the parallel engine *)
  simulate_seconds : float;(* wall time: extraction + algorithm runs *)
  verify_seconds : float;  (* wall time: Lcl.Verify over the labeling *)
  total_seconds : float;   (* wall time of the whole run *)
}

type outcome = {
  labeling : int array array;                (* per node, per port *)
  violations : Lcl.Verify.violation list;
  radius_used : int;
  stats : stats;
}

type id_mode = [ `Random | `Sequential | `Fixed of int array ]

(* Observability handles (see DESIGN.md, observability section).
   Everything is recorded as per-run aggregates after the parallel
   section — never per node — so the disabled path adds a handful of
   gated atomic reads per *run* (the obs-trace-shape test "spans
   independent of n" checks that a traced run records the same spans
   at n and at 4n). *)
let m_runs = Obs.Metrics.counter "runner.runs"
let m_nodes = Obs.Metrics.counter "runner.nodes"
let m_algo = Obs.Metrics.counter "runner.algo_invocations"
let m_hits = Obs.Metrics.counter "runner.cache_hits"
let m_views = Obs.Metrics.counter "runner.distinct_views"
let m_retries = Obs.Metrics.counter "runner.retries"
let m_ok = Obs.Metrics.counter "runner.nodes_ok"
let m_crashed = Obs.Metrics.counter "runner.nodes_crashed"
let m_starved = Obs.Metrics.counter "runner.nodes_starved"
let m_errored = Obs.Metrics.counter "runner.nodes_errored"

(* A canonical-view cache that outlives one run: pass it back to
   [run] to reuse every memoized view — a second run of the same
   graph then invokes the algorithm zero times (the trace-shape
   regression tests assert exactly that). Soundness caveats are the
   same as [?memo]'s. *)
type memo_cache = {
  mc_lock : Mutex.t;
  mc_tbl : int array Util.Keytab.t;
}

let memo_cache () = { mc_lock = Mutex.create (); mc_tbl = Util.Keytab.create () }

let assign_ids rng mode n =
  match mode with
  | `Random -> Graph.Ids.random rng n
  | `Sequential -> Graph.Ids.sequential n
  | `Fixed ids ->
    if Array.length ids <> n then invalid_arg "Runner: fixed ids size";
    ids

let resolve_domains domains =
  match domains with
  | Some d -> max 1 d
  | None -> Util.Parallel.default_domains ()

let resolve_workers workers =
  match workers with
  | Some w -> max 1 w
  | None -> Util.Cluster.default_workers ()

(* -- cluster dispatch ---------------------------------------------------- *)

(* What one worker process sends back: its rows, its slice of the
   status array (record policy), its counter deltas and the memo
   entries it inserted (so the parent can fold them into the shared
   table — what keeps a cross-run [memo_cache] warm across the process
   boundary). Pure data: this record crosses the process boundary via
   [Marshal]; [Util.Cluster] carries the worker's trace alongside. *)
type shard_payload = {
  sp_rows : int array array;
  sp_statuses : Fault.status array;  (* [||] under the raise policy *)
  sp_hits : int;
  sp_retries : int;
  sp_memo : (int * int array * int array) list;  (* (hash, key, out) *)
}

(* -- the execution core -------------------------------------------------- *)

(* Faults only restrict where the Def. 2.4 checks apply: crashed nodes
   produce no output, surviving nodes see views truncated at blocked
   edges, and the partial labeling is verified on the healthy subgraph.

   Everything stays a pure function of (graph, plan, seed): retry
   randomness is derived per (node randomness, attempt) with a
   splitmix64 finalizer — no shared retry budget, no draw-order
   dependence — so the outcome is bit-identical at any worker count. *)

type fault_report = {
  applied : Fault.Plan.t;
  statuses : Fault.status array;   (* per host node *)
  ok_nodes : int;
  crashed_nodes : int;
  starved_nodes : int;
  errored_nodes : int;
  severed_edges : int;             (* severed edges present in the graph *)
  retries_used : int;              (* extra attempts summed over nodes *)
}

type resilient_outcome = {
  partial : int array array;       (* [||] rows at Crashed/Errored nodes *)
  healthy_violations : Lcl.Verify.violation list; (* host coordinates *)
  r_radius_used : int;
  r_stats : stats;
  report : fault_report;
}

let faultsim_fields ~algo ~n o =
  let r = o.report in
  [
    ("faultsim", Json.String "local"); ("algo", String algo); ("n", Int n);
    ("plan", Fault.Plan.to_json r.applied); ("radius", Int o.r_radius_used);
    ("ok", Int r.ok_nodes); ("crashed", Int r.crashed_nodes);
    ("starved", Int r.starved_nodes); ("errored", Int r.errored_nodes);
    ("severed_edges", Int r.severed_edges);
    ("retries_used", Int r.retries_used);
    ("healthy_violations", Int (List.length o.healthy_violations));
  ]

(* What a node failure does. [Raise] is [run]'s: no plan, the
   algorithm's exception propagates and a wrong output arity is
   [Invalid_argument]; only here may the memo serve, since it is sound
   on fault-free views alone. [Record] carries a compiled plan:
   crashed nodes are skipped, a raising node is re-attempted [retries]
   times with remixed randomness and then becomes an [Errored] status
   (F103, or F102 for a wrong arity), and verification runs on the
   healthy subgraph. *)
type policy =
  | Raise of { cache : memo_cache option }
  | Record of { plan : Fault.Inject.compiled; retries : int }

(* splitmix64 finalizer: derive the attempt-[a] randomness of a node
   from its base randomness, purely and collision-resistantly. *)
let remix r a =
  if a = 0 then r
  else begin
    let z = Int64.add r (Int64.mul (Int64.of_int a) 0x9E3779B97F4A7C15L) in
    let z = Int64.logxor z (Int64.shift_right_logical z 30) in
    let z = Int64.mul z 0xBF58476D1CE4E5B9L in
    let z = Int64.logxor z (Int64.shift_right_logical z 27) in
    let z = Int64.mul z 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  end

let summarize_statuses applied ~severed_edges ~retries_used statuses =
  let ok = ref 0 and cr = ref 0 and st = ref 0 and er = ref 0 in
  Array.iter
    (function
      | Fault.Ok -> incr ok
      | Fault.Crashed -> incr cr
      | Fault.Starved -> incr st
      | Fault.Errored _ -> incr er)
    statuses;
  {
    applied;
    statuses;
    ok_nodes = !ok;
    crashed_nodes = !cr;
    starved_nodes = !st;
    errored_nodes = !er;
    severed_edges;
    retries_used;
  }

(* The one LOCAL engine; the entry points are projections of it.
   Under [Raise] it copies no ids or randomness, allocates no status
   array and returns an empty report; its per-node loop is the memo
   probe or extraction, the algorithm and the arity check, behind one
   false flag and an exception handler that lets everything through. *)
let execute ~policy ~seed ~ids ~n_declared ~domains ~workers ~problem
    (algo : Algorithm.t) g =
  let t_start = Unix.gettimeofday () in
  let n = Graph.n g in
  let n_declared = Option.value n_declared ~default:n in
  let rng = Util.Prng.create ~seed in
  let ids = assign_ids rng ids n in
  let rand = Array.init n (fun _ -> Util.Prng.next_int64 rng) in
  let ids, rand, statuses, retries, cache =
    match policy with
    | Raise { cache } -> (ids, rand, [||], 0, cache)
    | Record { plan; retries } ->
      ( Fault.Inject.apply_ids plan ids,
        Fault.Inject.apply_rand plan rand,
        Array.make n Fault.Ok,
        retries,
        None )
  in
  let radius = algo.Algorithm.radius ~n:n_declared in
  let domains_used = min (resolve_domains domains) (max 1 n) in
  let workers_used = min (resolve_workers workers) (max 1 n) in
  (* so that [distinct_views] counts views added by THIS run: a shared
     cross-run cache arrives non-empty, and re-reporting its cumulative
     size every run used to double-count into [m_views] *)
  let views_before =
    match cache with None -> 0 | Some c -> Util.Keytab.length c.mc_tbl
  in
  let hits = Atomic.make 0 in
  (* sequential runs count hits in a plain cell: an atomic
     read-modify-write per node is measurable on the memo hit path *)
  let hits_seq = ref 0 in
  let retried = Atomic.make 0 in
  (* memo insertions, journaled so a cluster worker can ship them back
     to the parent table; one cons per *distinct* view, so the
     single-process path pays nothing measurable *)
  let journal = ref [] in
  let record, crashed, blocked =
    match policy with
    | Raise _ -> (false, [||], None)
    | Record { plan; _ } ->
      ( true,
        plan.Fault.Inject.crashed,
        if plan.Fault.Inject.any_blocked then
          Some (Fault.Inject.is_blocked plan)
        else None )
  in
  let arity_error v k =
    let message =
      Printf.sprintf "%s returned %d outputs at degree-%d node"
        algo.Algorithm.name k (Graph.degree g v)
    in
    if record then
      raise_notrace (Fault.Error.E (Fault.Error.v ~node:v ~code:"F102" message))
    else invalid_arg ("Runner.run: " ^ message)
  in
  (* Attempt [a] on [ball]: the algorithm with the view's randomness
     remixed for the attempt; a raise is re-attempted while attempts
     remain. *)
  let rec attempt ball a =
    let ball_a =
      if a = 0 then ball
      else
        { ball with
          Graph.Ball.rand = Array.map (fun r -> remix r a) ball.Graph.Ball.rand }
    in
    if a = retries then algo.Algorithm.run ball_a
    else
      match algo.Algorithm.run ball_a with
      | out -> out
      | exception _ ->
        Atomic.incr retried;
        attempt ball (a + 1)
  in
  (* The output at [v] from its view, or what its failure becomes.
     Under [Raise] the crash test is one false flag and the handler
     lets whatever was raised through. Under [Record] a crash or a
     failure is published in [statuses] by side effect: workers own
     disjoint index chunks and the join in [Util.Parallel] orders
     their writes before any read, so this costs one shared array
     instead of a per-node (status, row) tuple. The arity check stays
     outside [attempt]'s handler: a wrong arity is a bug, not bad
     luck, and is never retried. ~reuse: each worker domain is done
     with a view before extracting the next, so the per-domain view
     pool is sound. *)
  let output v =
    if record && crashed.(v) then begin
      statuses.(v) <- Fault.Crashed;
      [||]
    end
    else
      match
        let ball =
          match blocked with
          | None ->
            fst
              (Graph.Ball.extract ~reuse:true g ~ids ~rand ~n_declared v
                 ~radius)
          | Some blocked ->
            let ball, _hosts, degraded =
              Graph.Ball.extract_restricted ~reuse:true g ~blocked ~ids ~rand
                ~n_declared v ~radius
            in
            if degraded then statuses.(v) <- Fault.Starved;
            ball
        in
        let out =
          if retries = 0 then algo.Algorithm.run ball else attempt ball 0
        in
        if Array.length out <> Graph.degree g v then
          arity_error v (Array.length out);
        out
      with
      | out -> out
      | exception e when record ->
        statuses.(v) <-
          Fault.Errored
            (Fault.Error.of_algorithm_exn ~algo:algo.Algorithm.name ~node:v e);
        [||]
  in
  (* The per-node body the engine runs: [output], behind the view memo
     when [run] brought one. *)
  let compute =
    match cache with
    | None -> output
    | Some { mc_lock = lock; mc_tbl = table } ->
      fun v ->
        (* probe with the key assembled straight from the BFS scratch —
           the hit path never materializes a view, a string, or a
           closure result; a single worker owns the table for the whole
           parallel section, so it also skips the lock *)
        let kv =
          Graph.Ball.fingerprint_view_of g ~ids ~n_declared v ~radius
        in
        let found =
          (* no closure on the sequential path — it would be a per-node
             allocation *)
          if domains_used = 1 then
            Util.Keytab.find table ~hash:kv.Graph.Ball.kv_hash
              kv.Graph.Ball.kv_words ~len:kv.Graph.Ball.kv_len
          else
            Mutex.protect lock (fun () ->
                Util.Keytab.find table ~hash:kv.Graph.Ball.kv_hash
                  kv.Graph.Ball.kv_words ~len:kv.Graph.Ball.kv_len)
        in
        match found with
        | Some out ->
          if domains_used = 1 then incr hits_seq else Atomic.incr hits;
          (* no arity check: equal keys imply equal center degree, and
             the stored output was checked when it was inserted *)
          Array.copy out
        | None ->
          (* copy the key out of the scratch before extracting or
             invoking the algorithm — a nested fingerprint would
             overwrite it *)
          let hash = kv.Graph.Ball.kv_hash in
          let key =
            Array.sub kv.Graph.Ball.kv_words 0 kv.Graph.Ball.kv_len
          in
          let out = output v in
          (* a racing domain may insert the same view meanwhile; for the
             deterministic algorithms the memo is sound for, both
             computed outputs are identical, so first-writer-wins
             (which [Keytab.add] implements) *)
          let stored = Array.copy out in
          let insert () =
            Util.Keytab.add table ~hash key stored;
            journal := (hash, key, stored) :: !journal
          in
          if domains_used = 1 then insert () else Mutex.protect lock insert;
          out
  in
  let rows ~domains lo hi =
    Util.Parallel.init ~domains (hi - lo) (fun i -> compute (lo + i))
  in
  let cluster_hits = ref 0 in
  let cluster_retries = ref 0 in
  (* One worker process per contiguous node range; each child runs the
     domain-parallel engine above on its shard (reading halo balls
     straight out of the copy-on-write graph) and ships rows, its
     status slice, counter deltas and memo insertions back as one
     frame. Rank-order concatenation and status blits make the outcome
     bit-identical to the single-process run (the kill-worker chaos
     job diffs exactly this). A range no worker delivered is computed
     in the parent on one domain, so the parent can still fork: its
     effects (hit counters, memo inserts, statuses) land in parent
     state directly, and it raises what a one-process run raises. *)
  let cluster_simulate () =
    let shard lo hi =
      (* computed first: the other fields read what it leaves behind *)
      let sp_rows = rows ~domains:domains_used lo hi in
      {
        sp_rows;
        sp_statuses =
          (if Array.length statuses = 0 then [||]
           else Array.sub statuses lo (hi - lo));
        sp_hits = Atomic.get hits + !hits_seq;
        sp_retries = Atomic.get retried;
        sp_memo = !journal;
      }
    in
    let recover lo hi =
      {
        sp_rows = rows ~domains:1 lo hi;
        sp_statuses = [||];
        sp_hits = 0;
        sp_retries = 0;
        sp_memo = [];
      }
    in
    let shards =
      Util.Cluster.map_ranges ~workers:workers_used ~recover ~n shard
    in
    (* merge in rank order: status slices into place, memo entries into
       the parent table (first-writer-wins keeps racing duplicates
       harmless), counter deltas into the accumulators *)
    Array.iteri
      (fun rank p ->
        if Array.length p.sp_statuses > 0 then begin
          let lo, _ =
            Util.Cluster.block_bounds ~n ~workers:workers_used rank
          in
          Array.blit p.sp_statuses 0 statuses lo
            (Array.length p.sp_statuses)
        end;
        (match cache with
        | Some c ->
          List.iter
            (fun (h, k, v) -> Util.Keytab.add c.mc_tbl ~hash:h k v)
            (List.rev p.sp_memo)
        | None -> ());
        cluster_hits := !cluster_hits + p.sp_hits;
        cluster_retries := !cluster_retries + p.sp_retries)
      shards;
    Array.concat (Array.to_list (Array.map (fun p -> p.sp_rows) shards))
  in
  (* [simulate_seconds] is the documented "extraction + algorithm
     runs" window: it brackets the parallel section, not the id/PRNG
     derivation above *)
  let t_sim0 = Unix.gettimeofday () in
  let labeling =
    Obs.Span.with_ "runner.simulate" (fun () ->
        if workers_used <= 1 then
          Util.Parallel.init ~domains:domains_used n compute
        else cluster_simulate ())
  in
  let t_simulated = Unix.gettimeofday () in
  let violations =
    Obs.Span.with_ "runner.verify" (fun () ->
        match policy with
        | Raise _ -> Lcl.Verify.violations problem g labeling
        | Record { plan; _ } ->
          Fault.Inject.verify_healthy plan g ~problem ~labeling
            ~has_output:(fun v -> Fault.Inject.status_ok statuses.(v)))
  in
  let t_end = Unix.gettimeofday () in
  let applied, severed_edges =
    match policy with
    | Raise _ -> (Fault.Plan.empty, 0)
    | Record { plan; _ } ->
      (plan.Fault.Inject.plan, plan.Fault.Inject.severed_live)
  in
  let report =
    summarize_statuses applied ~severed_edges
      ~retries_used:(Atomic.get retried + !cluster_retries)
      statuses
  in
  let r_stats =
    {
      balls_extracted = n - report.crashed_nodes;
      cache_hits = Atomic.get hits + !hits_seq + !cluster_hits;
      distinct_views =
        (match cache with
        | None -> 0
        | Some c -> Util.Keytab.length c.mc_tbl - views_before);
      domains_used;
      simulate_seconds = t_simulated -. t_sim0;
      verify_seconds = t_end -. t_simulated;
      total_seconds = t_end -. t_start;
    }
  in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_nodes n;
  Obs.Metrics.add m_hits r_stats.cache_hits;
  Obs.Metrics.add m_views r_stats.distinct_views;
  (* invocations = surviving nodes minus memo hits, plus re-attempts *)
  Obs.Metrics.add m_algo
    (r_stats.balls_extracted - r_stats.cache_hits + report.retries_used);
  (* the status counters stay zero under [Raise]: it records none *)
  Obs.Metrics.add m_retries report.retries_used;
  Obs.Metrics.add m_ok report.ok_nodes;
  Obs.Metrics.add m_crashed report.crashed_nodes;
  Obs.Metrics.add m_starved report.starved_nodes;
  Obs.Metrics.add m_errored report.errored_nodes;
  {
    partial = labeling;
    healthy_violations = violations;
    r_radius_used = radius;
    r_stats;
    report;
  }

(* -- entry points -------------------------------------------------------- *)

(** Run [algo] on [g] against [problem]: the fault-free projection of
    the core. [n_declared] defaults to the true size (Def. 2.1 gives
    nodes the exact n; pass a different value to "fool" an algorithm,
    as the order-invariance speedup does). [domains] selects the worker
    count of the parallel engine (default $LCL_DOMAINS, else
    sequential); the labeling is identical for every worker count.
    [memo] enables the canonical-view cache — only sound for
    deterministic order-invariant algorithms. *)
let run ?(seed = 0xC0FFEE) ?(ids = `Random) ?n_declared ?domains ?workers
    ?(memo = false) ?cache ~problem (algo : Algorithm.t) g =
  Obs.Span.with_ "runner.run" @@ fun () ->
  let cache =
    match cache with
    | Some _ -> cache
    | None -> if memo then Some (memo_cache ()) else None
  in
  let o =
    execute ~policy:(Raise { cache }) ~seed ~ids ~n_declared ~domains ~workers
      ~problem algo g
  in
  {
    labeling = o.partial;
    violations = o.healthy_violations;
    radius_used = o.r_radius_used;
    stats = o.r_stats;
  }

(** Run [algo] on [g] under fault [plan]. Nothing raises across the
    parallel engine: every per-node failure is caught and becomes an
    [Errored] status (with [retries] fresh-randomness re-attempts
    first), crashed nodes are skipped, and the labeling is verified on
    the healthy subgraph. Plan/graph mismatches return [Error] (F301). *)
let run_resilient ?(seed = 0xC0FFEE) ?(ids = `Random) ?n_declared ?domains
    ?workers ?(plan = Fault.Plan.empty) ?(retries = 0) ~problem
    (algo : Algorithm.t) g =
  Obs.Span.with_ "runner.run_resilient" @@ fun () ->
  Result.map
    (fun plan ->
      execute ~policy:(Record { plan; retries }) ~seed ~ids ~n_declared
        ~domains ~workers ~problem algo g)
    (Fault.Inject.compile plan g)

let succeeds ?seed ?ids ?n_declared ?domains ?workers ?plan ?retries ~problem
    algo g =
  match plan with
  | None ->
    (run ?seed ?ids ?n_declared ?domains ?workers ~problem algo g).violations
    = []
  | Some plan -> (
    match
      run_resilient ?seed ?ids ?n_declared ?domains ?workers ~plan ?retries
        ~problem algo g
    with
    | Error _ -> false
    | Ok o -> o.healthy_violations = [] && o.report.errored_nodes = 0)

(** Empirical *local* failure probability (Def. 2.4): over [trials]
    independent runs (fresh randomness and IDs), the maximum over
    nodes and edges of the failure frequency of that node/edge.
    Failure counts use defaulting lookups, so edge keys the verifier
    reports beyond the pre-registered edge list (e.g. self-loops keyed
    as [(v, v)]) are counted instead of raising [Not_found]. *)
let empirical_local_failure ?(trials = 100) ?(seed = 7) ?domains ?workers
    ?plan ?retries ~problem algo g =
  let n = Graph.n g in
  let node_fails = Array.make n 0 in
  let edge_fails = Hashtbl.create 64 in
  (* One rule for the events of a trial, with or without a plan:
     [Lcl.Verify.failure_events] over its violations, plus the nodes
     the plan run recorded as [Errored]. Under a plan the violations
     are those of the healthy subgraph, so crashed nodes impose
     nothing. *)
  let tally ?(errored = fun _ -> false) violations =
    let node_fail, edge_fail = Lcl.Verify.failure_events g violations in
    Array.iteri
      (fun v f -> if f || errored v then node_fails.(v) <- node_fails.(v) + 1)
      node_fail;
    Hashtbl.iter
      (fun e () ->
        Hashtbl.replace edge_fails e
          (1 + Option.value (Hashtbl.find_opt edge_fails e) ~default:0))
      edge_fail
  in
  for trial = 0 to trials - 1 do
    let seed = seed + (trial * 7919) in
    match plan with
    | None -> tally (run ~seed ?domains ?workers ~problem algo g).violations
    | Some plan -> (
      match
        run_resilient ~seed ?domains ?workers ~plan ?retries ~problem algo g
      with
      (* a plan the graph rejects (F301) fails everywhere by convention *)
      | Error _ -> Array.iteri (fun v c -> node_fails.(v) <- c + 1) node_fails
      | Ok o ->
        let statuses = o.report.statuses in
        tally
          ~errored:(fun v ->
            match statuses.(v) with Fault.Errored _ -> true | _ -> false)
          o.healthy_violations)
  done;
  let worst = ref 0 in
  Array.iter (fun c -> worst := max !worst c) node_fails;
  Hashtbl.iter (fun _ c -> worst := max !worst c) edge_fails;
  float_of_int !worst /. float_of_int trials
