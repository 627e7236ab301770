(** The VOLUME model (Definitions 2.8/2.9): adaptive probe algorithms
    that pay per node seen instead of per hop of radius. *)

type tuple = {
  id : int;
  degree : int;
  inputs : int array;  (** per-port input labels; -1 = unlabeled *)
}

type decision =
  | Probe of int * int  (** probe port p of the j-th discovered node *)
  | Output of int array (** outputs for the queried node's ports *)

type t = {
  name : string;
  budget : n:int -> int;                      (** declared T(n) *)
  decide : n:int -> tuple array -> decision;  (** pure in the tuples *)
}

exception Budget_exceeded of { algo : string; node : int; budget : int }
exception Bad_probe of string

val tuple_of : Graph.t -> ids:int array -> int -> tuple

(** Answer one query: run the probe loop for node [v]; returns the
    outputs and the probes spent.
    @raise Budget_exceeded / Bad_probe accordingly. *)
val query :
  ?n_declared:int -> t -> Graph.t -> ids:int array -> int -> int array * int

type outcome = {
  labeling : int array array;
  violations : Lcl.Verify.violation list;
  max_probes : int;
  total_probes : int;
}

(** Run the algorithm for every node under the given identifiers and
    verify the assembled labeling: the fault-free projection of the
    engine behind [run_resilient], so [Budget_exceeded], [Bad_probe]
    and the algorithm's own exceptions propagate — wrapped in
    [Util.Parallel.Worker_error] only when domains were spawned in
    this process, bare under [workers] > 1, as in [Local.Runner.run].
    Queries are answered on the deterministic parallel engine
    ([domains] as in [Local.Runner.run], default $LCL_DOMAINS),
    optionally sharded across [workers] forked processes ([workers] as
    in [Local.Runner.run], default $LCL_WORKERS); results are
    identical for any (workers, domains) combination. *)
val run_with_ids :
  ?n_declared:int -> ?domains:int -> ?workers:int ->
  problem:Lcl.Problem.t -> t -> Graph.t -> ids:int array -> outcome

(** Same with fresh random identifiers from a cubic range. *)
val run :
  ?seed:int -> ?n_declared:int -> ?domains:int -> ?workers:int ->
  problem:Lcl.Problem.t -> t -> Graph.t -> outcome

(** {1 Resilient probing under a fault plan}

    The same probe loop under a record policy: a probe is lost when it
    crosses a blocked edge (severed or with a crashed endpoint) or
    when its 1-based ordinal is listed for the querying node in the
    plan; a lost probe starves the query, so VOLUME [Starved] nodes
    carry no output row. Budget overruns and malformed probes become
    [Errored] (F201/F202), algorithm exceptions F103 — nothing
    raises. *)

type fault_report = {
  applied : Fault.Plan.t;
  statuses : Fault.status array;  (** per host node *)
  ok_nodes : int;
  crashed_nodes : int;
  starved_nodes : int;
  errored_nodes : int;
  retries_used : int;             (** whole-run re-attempts consumed *)
}

type resilient_outcome = {
  partial : int array array;   (** [[||]] rows unless the status is Ok *)
  healthy_violations : Lcl.Verify.violation list;
      (** violations on the healthy subgraph, in host coordinates *)
  r_max_probes : int;
  r_total_probes : int;
  report : fault_report;
}

(** Run every query under [plan] and verify the surviving outputs on
    the healthy subgraph. Retrying is run-level — VOLUME queries have
    no per-node randomness, so a retry redraws the identifier
    assignment for the whole run when some node [Errored].
    Deterministic in (graph, plan, seed) at any worker count; under
    the empty plan the outcome equals [run]'s for the same seed.
    [Error] (F301) iff the plan does not fit the graph. *)
val run_resilient :
  ?seed:int -> ?n_declared:int -> ?domains:int -> ?workers:int ->
  ?plan:Fault.Plan.t -> ?retries:int -> problem:Lcl.Problem.t -> t ->
  Graph.t -> (resilient_outcome, Fault.Error.t) result
