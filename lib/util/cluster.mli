(** Multi-process execution backend: fork one worker process per
    contiguous index range and merge their results in rank order.

    This is the process-level twin of [Parallel]: the same
    [block_bounds] decomposition, the same rank-order reassembly, so a
    pure per-index computation produces bit-identical output for any
    worker count. Workers are full [fork]s of the caller — each child
    sees the entire host graph by copy-on-write, which is how a shard
    reads the radius-T halo balls that straddle its boundary without
    any communication. Results come back as one [Marshal]ed
    length-prefixed frame per worker over a socketpair, together with
    the spans and metrics the worker recorded.

    One rule covers every range a worker does not deliver — the worker
    was killed, timed out or raised, or could not be forked: the parent
    computes it itself, so the merged result is unchanged (the
    property the kill-worker chaos CI job pins down) and an exception
    is the one a single-process run raises. *)

(** Worker count source when [?workers] is omitted: [$LCL_WORKERS]. *)
val env_var : string

(** Chaos hook: when [$LCL_CLUSTER_KILL_RANK] is set to rank [r], the
    rank-[r] worker SIGKILLs itself instead of answering, exercising
    the parent's recovery path. *)
val kill_env_var : string

(** Chaos hook: when [$LCL_CLUSTER_STALL_RANK] is set to rank [r], the
    rank-[r] worker sleeps 600 s before computing — long enough that a
    drain timeout reaps it, exercising the SIGKILL + recompute path. *)
val stall_env_var : string

(** Per-worker drain timeout of every [map_ranges] call ([None], the
    initial value, waits forever). The serve daemon sets it once at
    startup so every nested cluster call inherits the budget without
    signature plumbing. *)
val set_default_timeout : float option -> unit

val default_timeout : unit -> float option

(** Ranges recomputed in-process after their worker died or timed out,
    since process start. Sample before/after a computation to learn
    whether it took the degraded path. A range recomputed because its
    worker raised, or because its fork failed, does not count. *)
val recoveries : unit -> int

(** [LCL_WORKERS], else 1. Values below 1 or unparsable fall back
    to 1. Unlike [Parallel.default_domains] the value is not capped at
    the core count — worker processes share no runtime, so
    oversubscribing is ordinary scheduling and sharding stays testable
    on small machines — only bounded at 256 against fork bombs. *)
val default_workers : unit -> int

(** Index range of rank [b] out of [workers] over [0, n):
    [[b*n/w, (b+1)*n/w)] — identical to [Parallel.block_bounds]. *)
val block_bounds : n:int -> workers:int -> int -> int * int

(** Whether this process can fork workers right now. The OCaml 5
    runtime refuses [Unix.fork] in a process that has ever created a
    domain (even a joined one), so multi-process and multi-domain
    execution compose child-side only: fork first, spawn domains
    inside the workers. Feature-detected with a probe fork, so it
    costs one child process; [map_ranges] does not call it. *)
val can_fork : unit -> bool

(** [map_ranges ?workers ~n f] evaluates [f lo hi] for each of the
    [workers] contiguous ranges covering [0, n) — each range in a
    forked child process — and returns the per-rank results in rank
    order. With 1 worker (or [n = 0]) nothing is forked and [f] runs
    in-process.

    [f] must be pure per range. The child drops the trace state it
    inherited, and when observability is on it ships its spans and
    nonzero metrics with its result; the parent absorbs them in rank
    order.

    A rank that delivers no value is computed in the parent by
    [recover lo hi] (default [f]), in rank order, after every worker
    has been reaped: its worker died, tore its frame or outlived the
    {!default_timeout} (it is then SIGKILLed), its [f] raised, its
    result would not [Marshal] (closures, custom blocks), or its fork
    failed — the runtime refuses [fork] once this process has created
    a domain, and no probe fork is made first. [recover] must not
    spawn a domain — that would stop this process from forking for
    good — so pass a one-domain [recover] when [f] runs the domain
    engine. Whatever [recover] raises propagates, lowest rank first.
    Only deaths and timeouts count in {!recoveries}. *)
val map_ranges :
  ?workers:int -> ?recover:(int -> int -> 'a) -> n:int ->
  (int -> int -> 'a) -> 'a array
