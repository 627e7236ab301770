(** Request evaluation for the daemon: request in, typed outcome out.

    Every computed answer is deterministic in the request (seeds are
    explicit, reports carry no wall times), which is what makes the
    persistent cache sound: a warm answer is byte-identical to the
    cold one. That includes degraded answers — a cluster worker that
    dies or stalls mid-computation has its range recomputed in-process
    ([Util.Cluster]), so the text of a [Degraded] response is the same
    bytes the healthy run produces; only the flag differs, and the
    text is cached like any other answer (a warm replay is [Answer]).

    Failure taxonomy (the F4xx rows of DESIGN.md's error table):
    [Failed "F400"] — the request itself is bad (unknown algorithm,
    unparsable problem, out-of-range parameter); [Failed "F403"] — the
    computation raised. Cache trouble never fails a request: a [Busy]
    cache (lock held elsewhere past the bounded wait) is treated as a
    miss and the answer is computed without being stored.

    Observability (when enabled): each computed request runs under a
    ["serve.compute"] span; [serve.requests], [serve.cache.hits],
    [serve.cache.misses], [serve.computed] count lookups and
    invocations; [serve.degraded] counts answers that took a recovery
    path; [serve.deadline.expired] counts budget expiries;
    [serve.cache.bypassed] counts cache probes skipped over a busy
    lock. *)

(** Evaluate one request, bypassing any cache. [workers] shards
    simulation workloads across forked processes as in
    [Local.Runner.run]. [Classify] is answered statically by
    [Classify.Landscape] — verdict, bounds and certificate as
    canonical JSON, never invoking the simulator. [Stats], [Health]
    and [Shutdown] are daemon-level requests and answer [Failed]
    here. *)
val answer : ?workers:int -> Protocol.request -> Protocol.response

(** How a batched answer was obtained: from the persistent cache (or
    an earlier duplicate in the same cycle), computed on a cache miss,
    or computed/refused without a cache key ([Uncacheable] also covers
    deadline expiries). *)
type source = Hit | Miss | Uncacheable

(** Evaluate a dispatch cycle's batch of [(request, budget_ms)] pairs:
    distinct fingerprints are computed (or fetched) once and shared
    across the batch, in first-occurrence order; requests without a
    fingerprint are evaluated individually. A fingerprinted request
    probes [cache] first and persists its answer text on a miss;
    [Failed] answers are never cached. The result list is positionally
    aligned with the input.

    Budgets are enforced per dispatch cycle: each request's deadline
    is its budget measured from the start of the batch. A request
    whose deadline has already passed when its turn comes is answered
    [Deadline_exceeded] without being evaluated; while a budgeted
    request computes, the cluster drain timeout is clamped to the
    remaining budget so a stalled worker cannot overrun it (the range
    is reaped and recovered, degrading the answer rather than missing
    the deadline). *)
val answer_batch :
  ?workers:int -> cache:Util.Diskcache.t ->
  (Protocol.request * int option) list ->
  (Protocol.response * source) list
