(** The [lcl_tool serve] daemon: a select-loop over a Unix-domain
    socket, batching one dispatch cycle's requests through
    [Engine.answer_batch] and the persistent classification cache.

    One process, no in-parent domains by default: simulation requests
    shard across forked worker processes ([workers]), which keeps the
    daemon itself fork-capable for its whole lifetime (see
    [Util.Cluster.can_fork]).

    Protocol per connection: any number of request frames, answered in
    order; requests already buffered when a cycle dispatches are
    answered from one batch (distinct fingerprints computed once).

    Robustness (see DESIGN.md, "Service robustness"):
    - every request terminates with a typed [Protocol.response] — a
      budget in the envelope (or [default_budget_ms]) turns into
      [Deadline_exceeded] instead of a hang, with the cluster drain
      timeout clamped to the remaining budget while it computes;
    - admission control: at most [max_pending] engine-level requests
      are admitted per dispatch cycle, the overflow is shed with
      [Overloaded] carrying a retry-after hint of 50 ms (daemon-level
      [Stats], [Health], [Shutdown] are never shed);
    - a worker death or stall mid-request degrades to an in-process
      recompute and a [Degraded] answer with identical text;
    - a corrupt cache file is quarantined (renamed aside) and the
      cache rebuilt, mid-run or at startup; a busy cache lock is
      bypassed for the cycle;
    - client misbehaviour (mid-frame disconnect, reset, garbage,
      never-reading peers) costs that client its connection, never the
      select loop: a peer that stops reading for 5 s ([SO_SNDTIMEO])
      stalls only its own answer. *)

type stats = {
  mutable served : int;      (** requests answered *)
  mutable hits : int;        (** answered from the persistent cache *)
  mutable misses : int;      (** fingerprinted but computed *)
  mutable connections : int; (** connections accepted *)
  mutable shed : int;        (** answered [Overloaded] unevaluated *)
  mutable degraded : int;    (** answered [Degraded] *)
  mutable deadlines : int;   (** answered [Deadline_exceeded] *)
  mutable failed : int;      (** answered [Failed] *)
  mutable quarantined : int; (** cache rebuilds after corruption *)
}

type config = {
  max_pending : int;
      (** engine-level admissions per dispatch cycle (default 64) *)
  default_budget_ms : int option;
      (** budget for envelopes that carry none (default [None]) *)
  cluster_timeout_ms : int option;
      (** installed via [Util.Cluster.set_default_timeout] at startup,
          so every computation inherits a worker drain bound even
          without a request budget (default [None] = keep the current
          global, which starts unbounded) *)
  chaos : Fault.Service.t;
      (** daemon-side chaos events, applied by engine-request ordinal
          (client-side events are ignored here); [Service.empty]
          disables injection *)
}

val default_config : config

(** [serve ~socket_path ~cache_path ()] binds [socket_path] (removing
    a stale socket file first), opens the cache at [cache_path] —
    quarantining and rebuilding it when corrupt — and serves until a
    [Shutdown] request arrives or [should_stop ()] turns true (polled
    at least every 0.25 s: [select] wakes at once for a readable
    socket, so the interval only bounds how soon [should_stop] is
    noticed). The cache is flushed and closed and the socket unlinked
    on every exit path. Returns the final counters.

    [on_ready] fires once listening — the socket file exists from
    [bind] on, so only [on_ready] says that a connect will be accepted
    (the CLI prints the socket path there; {!with_forked} waits for
    it). [workers] is passed to every computation.

    @raise Unix.Unix_error when binding or listening fails. *)
val serve :
  socket_path:string ->
  cache_path:string ->
  ?workers:int ->
  ?config:config ->
  ?should_stop:(unit -> bool) ->
  ?on_ready:(unit -> unit) ->
  unit ->
  stats

(** {1 Client side}

    Client-side failures are typed like daemon-side ones: transport
    trouble (cannot connect, daemon vanished mid-answer, receive
    timeout) comes back as [Failed] with code F401 — [request] never
    raises and never hangs when [recv_timeout_s] is set. *)

(** [request ~socket_path req] connects, sends [req] (with its
    [budget_ms], if any), and reads the answer: a one-element
    {!request_batch}, retried.

    [retry] is the reconnect/retry budget: transport failures are
    retried per the backoff policy, and an [Overloaded] answer is
    retried after at least its own retry-after hint. The default
    policy makes no retries. When the budget is exhausted the last
    outcome is returned: the final [Overloaded], or [Failed] F401
    describing the transport error. *)
val request :
  ?budget_ms:int ->
  ?recv_timeout_s:float ->
  ?retry:Util.Backoff.t ->
  socket_path:string ->
  Protocol.request ->
  Protocol.response

(** Send every request in one [write] on one connection before
    reading any answer — the way to land a whole batch in a single
    dispatch cycle (and the admission-control test's way to overflow
    one). Answers are positionally aligned; transport failures fill
    the remainder with [Failed] F401. No retries. *)
val request_batch :
  ?budget_ms:int ->
  ?recv_timeout_s:float ->
  socket_path:string ->
  Protocol.request list ->
  Protocol.response list

(** {1 A forked daemon}

    [with_forked f] forks a child that runs {!serve} on a fresh cache
    file in [Filename.get_temp_dir_name ()] and on [socket_path]
    (default: a fresh path next to the cache), waits until the child's
    [on_ready] fires, and runs [f socket_path]. Then, whether [f]
    returned or raised, it sends [Shutdown], reaps the child — one
    that has not exited 10 s later is SIGKILLed — and removes the
    socket, the cache and every [<cache>.quarantined*] copy the
    daemon moved aside. The child also stops by itself if this
    process dies. [workers] and [config] are passed to {!serve}.

    Readiness comes from [on_ready] over a pipe, not from polling the
    socket file or sending a request: the file appears at [bind],
    before [listen], and a [Ping] would take an engine ordinal and so
    shift [config.chaos].

    @raise Failure when the daemon does not become ready within 10 s
    (it could not bind, for instance) or, after [f] returned, did not
    exit with status 0. An exception from [f] is re-raised after the
    teardown. *)
val with_forked :
  ?socket_path:string ->
  ?workers:int ->
  ?config:config ->
  (string -> 'a) ->
  'a
