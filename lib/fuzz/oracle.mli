(** The differential oracle: one (problem, graph) case executed
    through every engine configuration, with byte-identical-output
    assertions across all of them.

    The workload is a fixed radius-1 deterministic order-invariant
    algorithm ({!view_hash_algo}) whose output at a node is a pure
    function of the canonical fingerprint of its view — so it is legal
    on any problem and graph, memoization is sound for it, and every
    engine configuration must produce the same labeling, the same
    violation list and the same per-phase counters. A case passing the
    oracle therefore certifies the determinism contract the whole repo
    is built on: sequential = multi-domain = multi-process = memoized
    re-run = resilient-under-the-empty-plan = served-by-the-daemon.

    Configurations are named: ["seq"] (domains 1, workers 1, the
    reference), ["domains4"], ["workers3"], ["memo"] (two runs sharing
    a cache; the second must invoke the algorithm zero times),
    ["resilient"] (empty fault plan: [run] is the raise-policy
    projection of the same core, so this leg checks that the record
    policy changes nothing but the all-[Ok] statuses it adds),
    ["serve"] (a budgeted [Gap] round trip through a live daemon,
    cold and warm, against the direct [Serve.Engine.answer] text —
    [Gap] rather than [Classify] because it carries its budgets on
    the wire, and the engine's
    [Classify] defaults are too slow for a fuzz loop; the report's
    classify digest is computed in-process at the same budgets
    instead). The multi-domain leg runs in a forked
    subprocess when forking is available, so the calling process never
    spawns a domain and stays fork-capable for the whole fuzz run. *)

(** Config names, in execution order (serve excluded — it only runs
    when a daemon socket is supplied). *)
val configs : string list

(** The fixed fuzz workload for a problem. Deterministic and
    order-invariant; outputs are always in range, never necessarily
    valid — validity is the verifier's business, determinism is the
    oracle's. *)
val view_hash_algo : Lcl.Problem.t -> Local.Algorithm.t

(** Run [f] in a forked subprocess and marshal its result back; runs
    [f] in-process when the fork fails (the runtime refuses it once
    this process has created a domain). Exceptions in the child
    re-raise in the parent as [Failure]. *)
val in_subprocess : (unit -> 'a) -> 'a

type divergence = {
  config_a : string;
  config_b : string;
  detail : string;  (** which observable differed *)
}

type result = {
  case_index : int;
  graph : string;           (** spec string *)
  n : int;
  problem_delta : int;
  source_digest : string;   (** MD5 of the problem source *)
  label_digest : string;    (** MD5 of the reference labeling *)
  violations : int;
  radius : int;
  classify_digest : string;
      (** MD5 of the classify JSON at the fuzz budgets *)
  configs_run : string list;
  divergences : divergence list;
}

(** Run the matrix on one case. [seed] drives identifier assignment
    (shared by every leg). [serve] adds the daemon leg against that
    socket. [break_config] is the test-only divergence hook: after the
    named leg computes, its labeling is perturbed deterministically
    before comparison, so the shrinker and repro machinery can be
    exercised end to end. [only] restricts the matrix to the named
    configs plus the reference (used by replay). *)
val run_case :
  ?seed:int ->
  ?serve:string ->
  ?break_config:string ->
  ?only:string list ->
  case_index:int ->
  Lcl.Problem.t ->
  Gen.graph_spec ->
  result

(** [diverges ?break_config ~config_a ~config_b p spec] — does the
    pair of configurations still disagree on this case? The shrinker's
    re-check. *)
val diverges :
  ?seed:int ->
  ?break_config:string ->
  config_a:string ->
  config_b:string ->
  Lcl.Problem.t ->
  Gen.graph_spec ->
  bool

(** One byte-stable JSON line for a case result (no wall times). *)
val result_to_json : result -> string
