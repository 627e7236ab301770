(** Typed runtime errors for resilient execution: stable F-coded
    failures with optional node-index / chunk-range context (the code
    table lives in DESIGN.md beside the L/S diagnostic tables).
    Resilient entry points return [(_, t) result]; per-node failures
    travel as [Errored of t] statuses instead of exceptions. *)

type t = {
  code : string;              (** stable, e.g. ["F101"] *)
  message : string;
  node : int option;          (** host-graph node index, when known *)
  range : (int * int) option; (** failing chunk [lo, hi), when known *)
}

(** Exception wrapper used where an error must cross an exception-only
    boundary (e.g. out of a worker domain). *)
exception E of t

val v : ?node:int -> ?range:int * int -> code:string -> string -> t

val f :
  ?node:int -> ?range:int * int -> code:string ->
  ('a, unit, string, t) format4 -> 'a

val raise_ : t -> 'a

(** Canonical conversion from an escaped exception: [E] unwraps (the
    embedded node context wins over [?node]);
    [Util.Parallel.Worker_error] becomes F101 carrying the failing
    index and chunk (recursing on the wrapped exception, whose own
    F-code survives); [Invalid_argument] maps to F001, anything else
    to F002. *)
val of_exn : ?node:int -> ?range:int * int -> exn -> t

(** The error of node [node] whose algorithm [algo] raised [exn]: an
    [E] keeps its own code (and gains [node] if it had no node
    context), any other exception is F103. *)
val of_algorithm_exn : algo:string -> node:int -> exn -> t

(** ["[F101] message (node 3, chunk [0,50))"] *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
val to_json : t -> Json.t
