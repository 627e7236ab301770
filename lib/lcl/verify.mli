(** Solution verification (Definitions 2.3/2.4): check a half-edge
    labeling against a node-edge-checkable problem and report exactly
    where it fails — per node and per edge, the two failure events the
    paper's local failure probability ranges over. *)

type violation =
  | Bad_node of int       (** node whose configuration is not in N *)
  | Bad_edge of int * int (** half-edge (node, port) of a bad edge *)
  | Bad_g of int * int    (** half-edge (node, port) violating g *)

val pp_violation : Format.formatter -> violation -> unit

(** Input label of a half-edge: the graph's annotation, or letter 0
    when unannotated (the input-free convention). *)
val input_label : Graph.t -> int -> int -> int

(** All violations of a labeling (node-major, port-indexed outputs).
    @raise Invalid_argument on arity mismatches or when the graph's
    input annotations do not fit the problem's input alphabet. *)
val violations :
  Problem.t -> Graph.t -> int array array -> violation list

val is_valid : Problem.t -> Graph.t -> int array array -> bool

(** Per-node and per-edge failure indicators of a violation list (in
    [g]'s coordinates) — the empirical counterpart of Def. 2.4's local
    failure events. Each node and each edge fails at most once; a g
    violation fails both its node and its edge. *)
val failure_events :
  Graph.t -> violation list -> bool array * ((int * int), unit) Hashtbl.t

(** Brute-force search for any correct solution on a small graph
    (backtracking over half-edges, bounded by [limit] steps; [None]
    also on budget exhaustion). For tests and cross-checks. *)
val solvable :
  ?limit:int -> Problem.t -> Graph.t -> int array array option
