(** Execution of LOCAL algorithms on a host graph: identifier and
    randomness assignment, per-node view extraction, verification —
    parallelized over OCaml domains with an optional canonical-view
    memo cache. *)

(** Engine counters and per-phase wall times of one [run]. *)
type stats = {
  balls_extracted : int;    (** views examined, one per live node (memo
                                hits probe by key without materializing
                                the view) *)
  cache_hits : int;         (** algorithm invocations saved by the memo *)
  distinct_views : int;
      (** canonical views added to the cache by this run (0 if off);
          a shared cross-run [memo_cache] reports growth, not size *)
  domains_used : int;       (** worker domains of the parallel engine *)
  simulate_seconds : float; (** wall time: extraction + algorithm runs *)
  verify_seconds : float;   (** wall time: verification of the labeling *)
  total_seconds : float;    (** wall time of the whole run *)
}

type outcome = {
  labeling : int array array;               (** per node, per port *)
  violations : Lcl.Verify.violation list;
  radius_used : int;
  stats : stats;
}

type id_mode = [ `Random | `Sequential | `Fixed of int array ]

(** A canonical-view memo cache that outlives one run: create it once
    with [memo_cache] and pass it to several [run]s to share memoized
    views — a repeat run of the same graph then invokes the algorithm
    zero times. Same soundness caveats as [?memo]. *)
type memo_cache

val memo_cache : unit -> memo_cache

(** Run [algo] on [g] against [problem]. [n_declared] defaults to the
    true size; pass another value to "fool" an algorithm (as the
    order-invariance speedups do). [seed] drives both the identifier
    assignment and the per-node randomness. This is the fault-free
    projection of the engine behind [run_resilient]: an exception the
    algorithm raises propagates, and a wrong output arity raises
    [Invalid_argument]. Both come wrapped in [Util.Parallel.Worker_error]
    when the run spawned domains in this process ([workers] = 1 and
    [domains] > 1); under [workers] > 1 they come bare, because the
    parent recomputes a range whose worker raised on one domain (see
    [Util.Cluster.map_ranges]).

    [domains] sets the worker count of the deterministic parallel
    engine (default: $LCL_DOMAINS, else 1 = sequential); the labeling
    is bit-identical for every worker count. [workers] additionally
    shards the node range across that many forked worker *processes*
    (default: $LCL_WORKERS, else 1 — see [Util.Cluster]), each running
    the domain engine on its shard; rank-order merging keeps the
    labeling and violations bit-identical for every (workers, domains)
    combination. [stats] counters may differ under sharding —
    [cache_hits]/[distinct_views] depend on which worker first sees a
    view — but a shared [cache] stays warm across the process
    boundary: workers ship their insertions back to the parent table.
    [memo] (default off) caches algorithm outputs per canonical view
    ([Graph.Ball.fingerprint]); sound only for deterministic
    order-invariant algorithms (Def. 2.7). [cache] supplies a
    cross-run cache and implies [memo]. *)
val run :
  ?seed:int -> ?ids:id_mode -> ?n_declared:int -> ?domains:int ->
  ?workers:int -> ?memo:bool -> ?cache:memo_cache ->
  problem:Lcl.Problem.t -> Algorithm.t -> Graph.t -> outcome

(** {1 Resilient execution under a fault plan} *)

(** Per-node outcomes of one resilient run, summarized. *)
type fault_report = {
  applied : Fault.Plan.t;
  statuses : Fault.status array;  (** per host node *)
  ok_nodes : int;
  crashed_nodes : int;
  starved_nodes : int;
  errored_nodes : int;
  severed_edges : int;  (** severed edges actually present in the graph *)
  retries_used : int;   (** extra attempts summed over nodes *)
}

type resilient_outcome = {
  partial : int array array;
      (** partial labeling; [[||]] rows at Crashed/Errored nodes *)
  healthy_violations : Lcl.Verify.violation list;
      (** violations on the healthy subgraph, in host coordinates *)
  r_radius_used : int;
  r_stats : stats;
  report : fault_report;
}

(** The fields of a LOCAL fault report, in report order: the serve
    daemon's [Faultsim] answer is exactly these, and [lcl_tool faultsim]
    appends its per-node [errors]. *)
val faultsim_fields :
  algo:string -> n:int -> resilient_outcome -> (string * Json.t) list

(** Run [algo] on [g] under fault [plan] (default: no faults). Crashed
    nodes produce no output; surviving nodes see views truncated at
    blocked edges (and are [Starved] when that truncation is visible);
    a per-node failure is retried up to [retries] times with fresh
    purely-derived randomness and then becomes an [Errored] status —
    F103, or the code of a [Fault.Error.E] the algorithm raised; a
    wrong output arity is F102 and is never retried. Nothing raises
    across the parallel engine. The partial labeling is verified on
    the healthy subgraph only; under the empty plan it equals [run]'s
    labeling for the same seed. Pure in (graph, plan, seed):
    bit-identical at any worker count — statuses and partial labeling
    included, for any [workers] process count (a worker process that
    dies mid-run is recovered in the parent with the same result).
    [Error] (F301) iff the plan references nodes outside the graph. *)
val run_resilient :
  ?seed:int -> ?ids:id_mode -> ?n_declared:int -> ?domains:int ->
  ?workers:int -> ?plan:Fault.Plan.t -> ?retries:int ->
  problem:Lcl.Problem.t -> Algorithm.t -> Graph.t ->
  (resilient_outcome, Fault.Error.t) result

(** Without [?plan]: the [run] outcome has no violations. With a plan:
    the resilient run has no healthy-subgraph violations and no
    [Errored] node (crashing/starving gracefully still succeeds). *)
val succeeds :
  ?seed:int -> ?ids:id_mode -> ?n_declared:int -> ?domains:int ->
  ?workers:int -> ?plan:Fault.Plan.t -> ?retries:int ->
  problem:Lcl.Problem.t -> Algorithm.t -> Graph.t -> bool

(** Empirical *local* failure probability (Def. 2.4): over [trials]
    runs with fresh randomness, the maximum per-node/per-edge failure
    frequency, so never above 1: a trial fails each node and each edge
    at most once ([Lcl.Verify.failure_events]). Handles every edge key
    the verifier can report, including self-loops. Under [?plan] the
    events are restricted to the healthy subgraph — [Errored] nodes
    and surviving-subgraph violations count, crashed nodes impose
    nothing — so the result reports degradation instead of crashing;
    for an algorithm that does not raise, the empty plan gives the
    plan-free result. *)
val empirical_local_failure :
  ?trials:int -> ?seed:int -> ?domains:int -> ?workers:int ->
  ?plan:Fault.Plan.t -> ?retries:int ->
  problem:Lcl.Problem.t -> Algorithm.t -> Graph.t -> float
