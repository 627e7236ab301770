(** Service-level chaos plans — the serve-layer sibling of the
    node-level {!Plan}.

    Where a [Plan] says which {e nodes} of a simulated graph misbehave,
    a service plan says what goes wrong around the {e requests} of a
    daemon run: which request ordinals lose a cluster worker, stall a
    shard, tear a client frame, drop a connection, corrupt the
    persistent cache, or hit a full disk. Like node plans, a service
    plan is plain data — explicit (ordinal, event) pairs, never
    probabilities — so a chaos-soak run is a pure function of
    (plan, seed, request mix) and replays byte-identically.

    Ordinals count engine-level requests in daemon dispatch order
    (daemon-level [Stats]/[Health]/[Shutdown] do not consume
    ordinals). Events scheduled on ordinals past the end of the run,
    or naming worker ranks past the live worker count, are harmless
    no-ops — which is what keeps one plan meaningful across
    [LCL_WORKERS] settings. *)

type event =
  | Kill_worker of int   (** SIGKILL the rank before it answers *)
  | Stall_worker of int  (** the rank sleeps until the timeout reaps it *)
  | Torn_frame      (** client sends a torn frame and vanishes *)
  | Drop_connection (** client disconnects without reading the answer *)
  | Cache_corrupt   (** the on-disk cache is garbled before dispatch *)
  | Disk_full       (** cache appends fail during this request *)

type t

val empty : t

(** The plan of these (ordinal, event) pairs, in canonical order. *)
val make : (int * event) array -> t

val is_empty : t -> bool

(** Events scheduled at ordinal [i], in canonical order. *)
val at : t -> int -> event list

(** (class name, occurrences), every class listed. *)
val counts : t -> (string * int) list

(** True for the faults the {e client} of a soak applies
    ([Torn_frame], [Drop_connection]); the rest are daemon-side. *)
val client_side : event -> bool

(** Per-request fault intensities in [0, 1]; [ranks] bounds the worker
    rank drawn for kill/stall events. *)
type spec = {
  kill : float;
  stall : float;
  torn : float;
  drop : float;
  cache_corrupt : float;
  disk_full : float;
  ranks : int;
}

val spec :
  ?kill:float -> ?stall:float -> ?torn:float -> ?drop:float ->
  ?cache_corrupt:float -> ?disk_full:float -> ?ranks:int -> unit -> spec

(** Draw a concrete plan over [requests] ordinals from a single
    seeded stream, each class sampled in a fixed pass order — a
    deterministic function of (seed, requests, spec). A torn frame and
    a dropped connection on one ordinal cannot coexist (torn wins):
    the client can only vanish one way. *)
val generate : seed:int -> requests:int -> spec -> t
