(* The VOLUME model (Definitions 2.8 and 2.9). An algorithm answers a
   query about one node by *adaptively probing*: it starts from the
   queried node's local tuple (identifier, degree, per-port inputs) and
   repeatedly asks for the node behind port p of the j-th node it has
   already seen; after at most T(n) probes it must output the labels of
   the queried node's half-edges. Unlike the LOCAL model it pays per
   node seen, not per hop of radius — the distinction Theorem 1.3
   exploits.

   The tuple contents follow Definition 2.8: (id, deg, in) where [in]
   assigns an input label to each port. Orientation marks and similar
   structural annotations enter through the input labels, as in the
   paper's LCL formalism (inputs live on half-edges). *)

type tuple = {
  id : int;
  degree : int;
  inputs : int array; (* per-port input labels; -1 = unlabeled *)
}

type decision =
  | Probe of int * int  (* probe port p of the j-th discovered node *)
  | Output of int array (* output labels for the queried node's ports *)

type t = {
  name : string;
  budget : n:int -> int; (* declared probe complexity T(n) *)
  decide : n:int -> tuple array -> decision;
}

exception Budget_exceeded of { algo : string; node : int; budget : int }
exception Bad_probe of string

let tuple_of g ~ids v =
  {
    id = ids.(v);
    degree = Graph.degree g v;
    inputs = Array.init (Graph.degree g v) (fun p -> Graph.input g v p);
  }

type outcome = {
  labeling : int array array;
  violations : Lcl.Verify.violation list;
  max_probes : int;
  total_probes : int;
}

(* VOLUME under faults. A probe is *lost* when it crosses a blocked
   edge (severed, or a crashed endpoint — the compiled table is
   symmetric) or when the plan lists its 1-based ordinal for the
   querying node. A lost probe starves the query: the adaptive loop has
   no way to proceed without the answer, which is exactly the
   crash-stop/message-loss semantics — so VOLUME [Starved] nodes carry
   no output row, unlike LOCAL ones (where a degraded view still
   yields an output). *)

type fault_report = {
  applied : Fault.Plan.t;
  statuses : Fault.status array;  (* per host node *)
  ok_nodes : int;
  crashed_nodes : int;
  starved_nodes : int;
  errored_nodes : int;
  retries_used : int;             (* whole-run re-attempts consumed *)
}

type resilient_outcome = {
  partial : int array array;      (* [||] rows unless the status is Ok *)
  healthy_violations : Lcl.Verify.violation list; (* host coordinates *)
  r_max_probes : int;
  r_total_probes : int;
  report : fault_report;
}

(* What a failed query does, as in [Local.Runner]. [Raise]: no plan;
   budget overruns raise [Budget_exceeded], malformed probes and a
   wrong output arity [Bad_probe], and the algorithm's own exceptions
   propagate. [Record]: a compiled plan; crashed nodes are skipped,
   lost probes starve the query, budget overruns and malformed probes
   become [Errored] (F201/F202), algorithm exceptions F103, and the
   whole run is re-attempted with fresh identifiers up to [retries]
   times while some node errored. *)
type policy =
  | Raise
  | Record of { plan : Fault.Inject.compiled; retries : int }

(* The one probe loop: answer the query for node [v] under [policy].
   Returns the status, the output row ([[||]] unless [Ok]) and the
   probes spent, lost ones included; under [Raise] the status is
   always [Ok]. *)
let answer ~policy ?(n_declared = -1) (a : t) g ~ids v =
  match policy with
  | Record { plan; _ } when Fault.Inject.is_crashed plan v ->
    (Fault.Crashed, [||], 0)
  | _ -> (
    let n = if n_declared >= 0 then n_declared else Graph.n g in
    let budget = a.budget ~n in
    let discovered = ref [ (v, tuple_of g ~ids v) ] in
    let count = ref 0 in
    (* a broken contract: raised as [exn] under [Raise], filed as the
       F-coded [err] under [Record] *)
    let fail exn err =
      match policy with
      | Raise -> raise exn
      | Record _ -> (Fault.Errored err, [||], !count)
    in
    let f202 fmt = Fault.Error.f ~node:v ~code:"F202" fmt in
    let lost u p =
      match policy with
      | Raise -> false
      | Record { plan; _ } ->
        Fault.Inject.is_blocked plan u p
        || Fault.Inject.probe_fails plan ~node:v ~ordinal:!count
    in
    let rec loop () =
      let tuples = Array.of_list (List.rev_map snd !discovered) in
      match a.decide ~n tuples with
      | Output out ->
        if Array.length out <> Graph.degree g v then
          fail
            (Bad_probe (a.name ^ ": wrong output arity"))
            (f202 "%s: wrong output arity (%d at degree-%d node)" a.name
               (Array.length out) (Graph.degree g v))
        else (Fault.Ok, out, !count)
      | Probe (j, p) ->
        incr count;
        if !count > budget then
          fail
            (Budget_exceeded { algo = a.name; node = v; budget })
            (Fault.Error.f ~node:v ~code:"F201" "%s: probe budget %d exceeded"
               a.name budget)
        else begin
          let nodes = Array.of_list (List.rev_map fst !discovered) in
          if j < 0 || j >= Array.length nodes then
            fail
              (Bad_probe (a.name ^ ": probe of unknown node"))
              (f202 "%s: probe of unknown node %d" a.name j)
          else
            let u = nodes.(j) in
            if p < 0 || p >= Graph.degree g u then
              fail
                (Bad_probe (a.name ^ ": probe of nonexistent port"))
                (f202 "%s: probe of nonexistent port %d of node %d" a.name p u)
            else if lost u p then (Fault.Starved, [||], !count)
            else begin
              let w = Graph.neighbor g u p in
              discovered := (w, tuple_of g ~ids w) :: !discovered;
              loop ()
            end
        end
    in
    match policy with
    | Raise -> loop ()
    | Record _ -> (
      try loop ()
      with e ->
        ( Fault.Errored (Fault.Error.of_algorithm_exn ~algo:a.name ~node:v e),
          [||],
          !count )))

(** Answer the query for node [v]: run the adaptive probe loop.
    Returns the outputs and the number of probes spent. *)
let query ?n_declared (a : t) g ~ids v =
  let _, out, probes = answer ~policy:Raise ?n_declared a g ~ids v in
  (out, probes)

(* Observability handles: per-run aggregates recorded after the
   parallel section (the per-query histogram loop only runs when the
   switch is on, so the disabled path stays a no-op). *)
let m_queries = Obs.Metrics.counter "volume.queries"
let m_probes = Obs.Metrics.counter "volume.probes"
let m_per_query = Obs.Metrics.histogram "volume.probes_per_query"
let m_run_retries = Obs.Metrics.counter "volume.run_retries"
let m_ok = Obs.Metrics.counter "volume.nodes_ok"
let m_crashed = Obs.Metrics.counter "volume.nodes_crashed"
let m_starved = Obs.Metrics.counter "volume.nodes_starved"
let m_errored = Obs.Metrics.counter "volume.nodes_errored"

let resolve_workers workers =
  match workers with
  | Some w -> max 1 w
  | None -> Util.Cluster.default_workers ()

(* Cluster dispatch: queries are pure per node (they only read the
   host graph, the id assignment and the compiled plan, all of which
   every forked worker holds copy-on-write), so sharding the node
   range over worker processes and concatenating in rank order
   reproduces the single-process answer array bit for bit. A range no
   worker delivered is computed in the parent on one domain (see
   [Util.Cluster]). *)
let parallel_init ?domains ?workers n f =
  let workers_used = min (resolve_workers workers) (max 1 n) in
  if workers_used <= 1 then Util.Parallel.init ?domains n f
  else
    let range domains lo hi =
      Util.Parallel.init ?domains (hi - lo) (fun i -> f (lo + i))
    in
    Array.concat
      (Array.to_list
         (Util.Cluster.map_ranges ~workers:workers_used
            ~recover:(range (Some 1)) ~n (range domains)))

(* The one VOLUME engine: every query on the deterministic parallel
   engine, [ids k] being the identifier assignment of attempt [k]
   (only [Record] makes more than one), then verification — in place
   under [Raise], on the healthy subgraph under [Record]. *)
let execute ~policy ?n_declared ?domains ?workers ~problem (a : t) g ~ids =
  let n = Graph.n g in
  let retries = match policy with Raise -> 0 | Record r -> r.retries in
  let attempt k =
    let ids =
      match policy with
      | Raise -> ids k
      | Record { plan; _ } -> Fault.Inject.apply_ids plan (ids k)
    in
    Obs.Span.with_ "probe.simulate" (fun () ->
        parallel_init ?domains ?workers n (fun v ->
            answer ~policy ?n_declared a g ~ids v))
  in
  let errored (s, _, _) =
    match s with Fault.Errored _ -> true | _ -> false
  in
  let rec go k =
    let answers = attempt k in
    if k < retries && Array.exists errored answers then go (k + 1)
    else (answers, k)
  in
  let answers, attempts = go 0 in
  let statuses = Array.map (fun (s, _, _) -> s) answers in
  let partial = Array.map (fun (_, out, _) -> out) answers in
  let max_probes = Array.fold_left (fun m (_, _, p) -> max m p) 0 answers in
  let total_probes = Array.fold_left (fun t (_, _, p) -> t + p) 0 answers in
  let ok = ref 0 and cr = ref 0 and st = ref 0 and er = ref 0 in
  Array.iter
    (function
      | Fault.Ok -> incr ok
      | Fault.Crashed -> incr cr
      | Fault.Starved -> incr st
      | Fault.Errored _ -> incr er)
    statuses;
  let healthy_violations =
    Obs.Span.with_ "probe.verify" (fun () ->
        match policy with
        | Raise -> Lcl.Verify.violations problem g partial
        | Record { plan; _ } ->
          Fault.Inject.verify_healthy plan g ~problem ~labeling:partial
            ~has_output:(fun v -> statuses.(v) = Fault.Ok))
  in
  Obs.Metrics.add m_queries n;
  Obs.Metrics.add m_probes total_probes;
  if Obs.enabled () then
    Array.iter (fun (_, _, p) -> Obs.Metrics.observe m_per_query p) answers;
  (* the status counters stay zero under [Raise]: it records none *)
  (match policy with
  | Raise -> ()
  | Record _ ->
    Obs.Metrics.add m_run_retries attempts;
    Obs.Metrics.add m_ok !ok;
    Obs.Metrics.add m_crashed !cr;
    Obs.Metrics.add m_starved !st;
    Obs.Metrics.add m_errored !er);
  {
    partial;
    healthy_violations;
    r_max_probes = max_probes;
    r_total_probes = total_probes;
    report =
      {
        applied =
          (match policy with
          | Raise -> Fault.Plan.empty
          | Record { plan; _ } -> plan.Fault.Inject.plan);
        statuses;
        ok_nodes = !ok;
        crashed_nodes = !cr;
        starved_nodes = !st;
        errored_nodes = !er;
        retries_used = attempts;
      };
  }

(** Run the algorithm for every node under the given identifier
    assignment and verify the assembled labeling against [problem]:
    the fault-free projection of the core. Per-node queries are
    independent (the probe loop only reads the host graph), so they
    run on the deterministic parallel engine: [domains] as in
    [Local.Runner.run] (default $LCL_DOMAINS), with outputs and probe
    counts identical for every worker count. *)
let run_with_ids ?n_declared ?domains ?workers ~problem (a : t) g ~ids =
  Obs.Span.with_ "probe.run" @@ fun () ->
  let o =
    execute ~policy:Raise ?n_declared ?domains ?workers ~problem a g
      ~ids:(fun _ -> ids)
  in
  {
    labeling = o.partial;
    violations = o.healthy_violations;
    max_probes = o.r_max_probes;
    total_probes = o.r_total_probes;
  }

(* attempt [k]'s identifiers: fresh ones from a cubic range, drawn
   from [seed + 7919k] *)
let random_ids ~seed g k =
  Graph.Ids.random (Util.Prng.create ~seed:(seed + (k * 7919))) (Graph.n g)

(** Same with fresh random identifiers from a cubic range. *)
let run ?(seed = 0xBEEF) ?n_declared ?domains ?workers ~problem (a : t) g =
  run_with_ids ?n_declared ?domains ?workers ~problem a g
    ~ids:(random_ids ~seed g 0)

(** Run every query under fault [plan] and verify the surviving outputs
    on the healthy subgraph. Retrying is run-level (VOLUME queries have
    no per-node randomness — only the identifier assignment is random):
    when some node [Errored] and attempts remain, the whole run repeats
    with a fresh identifier seed. Deterministic in (graph, plan, seed)
    at any worker count. [Error] (F301) iff the plan does not fit the
    graph. *)
let run_resilient ?(seed = 0xBEEF) ?n_declared ?domains ?workers
    ?(plan = Fault.Plan.empty) ?(retries = 0) ~problem (a : t) g =
  Obs.Span.with_ "probe.run_resilient" @@ fun () ->
  Result.map
    (fun plan ->
      execute ~policy:(Record { plan; retries }) ?n_declared ?domains ?workers
        ~problem a g ~ids:(random_ids ~seed g))
    (Fault.Inject.compile plan g)
