(* Fork-based multi-process backend. See cluster.mli for the contract.

   Design mirrors [Parallel] deliberately: the same block_bounds
   decomposition and rank-order reassembly are what make a cluster run
   bit-identical to a single-process one for pure per-range functions.
   The transport is one [Framing] frame per worker over a socketpair —
   workers answer exactly once, so there is no multiplexing and EOF
   before the answer is an unambiguous "worker died" signal.

   The halo problem — a boundary node's radius-T ball reaching into a
   neighbor shard — is solved by fork semantics: every child holds the
   whole CSR graph copy-on-write, so cross-shard reads are plain array
   loads. Nothing is shipped back but the per-range result and the
   trace the worker recorded.

   One recovery rule: a range's output depends only on the range, so a
   rank that delivers no value — its worker died, timed out or raised,
   or was never forked — is computed again in the parent, where it
   gives the same bytes or raises what a one-process run raises. *)

let env_var = "LCL_WORKERS"
let kill_env_var = "LCL_CLUSTER_KILL_RANK"
let stall_env_var = "LCL_CLUSTER_STALL_RANK"

(* Unlike [Parallel.default_domains], the env value is NOT capped at
   the core count: worker processes share no runtime, so
   oversubscription is ordinary preemptive scheduling (and the
   bit-identical-merge property must be testable at 4 workers on any
   machine). The bound only guards against a fork bomb from a
   nonsensical setting. *)
let max_workers = 256

let default_workers () =
  match Sys.getenv_opt env_var with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some w when w >= 1 -> min w max_workers
    | _ -> 1)

let block_bounds ~n ~workers b = Parallel.block_bounds ~n ~d:workers b

let resolve workers =
  match workers with Some w -> max 1 w | None -> default_workers ()

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    (* a SIGCHLD reaper (the serve daemon installs one) may have
       collected the child already *)
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

(* The OCaml 5 runtime refuses [Unix.fork], with [Failure], in a
   process that has EVER created a domain (even joined ones):
   multi-process and in-process multi-domain execution compose only
   child-side — fork first, spawn domains inside the workers.
   [map_ranges] does not ask first: a refused fork leaves its rank
   [Missing], computed in the parent, so a mixed workload (e.g. a test
   suite that ran the domain engine before the cluster engages)
   degrades to the bit-identical single-process result instead of
   failing. [can_fork] answers the question for callers that report
   it (the daemon's health answer) with a probe fork, because the
   runtime exposes no "domains were created" query. *)
let can_fork () =
  Sys.unix
  &&
  match Unix.fork () with
  | 0 -> Unix._exit 0
  | pid ->
    reap pid;
    true
  | exception _ -> false

let rank_of_env var =
  match Sys.getenv_opt var with
  | None -> None
  | Some s -> int_of_string_opt (String.trim s)

(* How long a stalled chaos worker sleeps before computing: long
   enough that any sane per-worker timeout reaps it first. *)
let stall_seconds = 600.

(* Per-worker drain timeout: a process-global default (the serve
   daemon sets it once at startup so every nested cluster call
   inherits it). [None] = wait forever. *)
let default_timeout_s : float option ref = ref None
let set_default_timeout t = default_timeout_s := t
let default_timeout () = !default_timeout_s

(* Process-global count of ranges recovered in-process after their
   worker died or was reaped on timeout — the serve engine samples it
   around a computation to tag answers that took the degraded path. *)
let recoveries_total = ref 0
let recoveries () = !recoveries_total

let m_deaths = Obs.Metrics.counter "cluster.worker.deaths"
let m_timeouts = Obs.Metrics.counter "cluster.worker.timeouts"
let m_recovered = Obs.Metrics.counter "cluster.recovered"

(* What a rank came to. A worker ships [Value] (its result with the
   spans and nonzero metrics it recorded) or [Missing] (its function
   raised, or the result would not marshal); the parent alone knows
   [Lost] (the worker died, tore its frame, or was reaped on timeout)
   and gives a never-forked rank [Missing]. *)
type 'a answer =
  | Value of 'a * Obs.Span.event list * (string * Obs.Metrics.value) list
  | Missing
  | Lost

type drained = Frame of string | Eof | Timed_out

(* Read one answer frame, optionally bounded by a wall deadline. The
   bounded path goes through the incremental decoder over a
   non-blocking fd so a worker stalled MID-frame is caught too — a
   blocking [read_frame] would wedge on it forever. *)
let drain_answer rd ~deadline =
  match deadline with
  | None -> (
    match Framing.read_frame rd with
    | Some payload -> Frame payload
    | None -> Eof
    | exception Framing.Corrupt _ -> Eof)
  | Some dl -> (
    Unix.set_nonblock rd;
    let dec = Framing.decoder () in
    let scratch = Bytes.create 65536 in
    let rec loop () =
      match Framing.next dec with
      | Some payload -> Frame payload
      | None ->
        let now = Unix.gettimeofday () in
        if now >= dl then Timed_out
        else begin
          (match Unix.select [ rd ] [] [] (min 0.1 (dl -. now)) with
          | [], _, _ -> ()
          | _ -> (
            match Unix.read rd scratch 0 (Bytes.length scratch) with
            | 0 -> raise Exit
            | k -> Framing.feed dec (Bytes.sub_string scratch 0 k) ~pos:0 ~len:k
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop ()
        end
    in
    try loop () with Exit -> Eof | Framing.Corrupt _ -> Eof)

(* The worker: drop the trace copied from the parent, compute, ship
   the value with the worker's own trace. *)
let run_child ~rank ~lo ~hi wr f =
  if rank_of_env kill_env_var = Some rank then
    Unix.kill (Unix.getpid ()) Sys.sigkill;
  if rank_of_env stall_env_var = Some rank then Unix.sleepf stall_seconds;
  if Obs.enabled () then Obs.reset ();
  let answer =
    match f lo hi with
    | v ->
      if Obs.enabled () then
        Value
          ( v,
            Obs.Span.collect (),
            List.filter
              (fun (_, m) -> not (Obs.Metrics.is_zero m))
              (Obs.Metrics.snapshot ()) )
      else Value (v, [], [])
    | exception _ -> Missing
  in
  (try
     let payload =
       try Marshal.to_string answer []
       with _ -> Marshal.to_string (Missing : _ answer) []
     in
     Framing.write_frame wr payload
   with _ -> ());
  (* _exit, not exit: the child must not run the parent's at_exit
     handlers (test reporters, output flushing) on copied state *)
  Unix._exit 0

(* Fork every rank, then drain them in rank order. Later workers block
   in [write] until their turn, which is harmless — their compute is
   already done — and it keeps peak parent-side buffering at one
   frame. Each rank's drain is bounded by the default timeout,
   measured from when its turn starts (all ranks compute concurrently,
   so a healthy later rank has typically already answered); a rank
   that exceeds it is SIGKILLed. A rank that could not be forked —
   the runtime refused, or the system is out of processes — is
   [Missing]. *)
let run_workers ~n ~workers f =
  let spawn rank =
    let rd, wr = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.fork () with
    | 0 ->
      Unix.close rd;
      let lo, hi = block_bounds ~n ~workers rank in
      run_child ~rank ~lo ~hi wr f
    | pid ->
      Unix.close wr;
      Some (pid, rd)
    | exception (Unix.Unix_error _ | Failure _) ->
      Unix.close rd;
      Unix.close wr;
      None
  in
  let drain = function
    | None -> Missing
    | Some (pid, rd) ->
      let deadline =
        Option.map (fun s -> Unix.gettimeofday () +. s) !default_timeout_s
      in
      let a =
        match drain_answer rd ~deadline with
        | Frame payload -> (Marshal.from_string payload 0 : _ answer)
        | Eof ->
          Obs.Metrics.incr m_deaths;
          Lost
        | Timed_out ->
          Obs.Metrics.incr m_timeouts;
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          Lost
      in
      Unix.close rd;
      reap pid;
      a
  in
  Array.map drain (Array.init workers spawn)

let map_ranges ?workers ?recover ~n f =
  let w = min (resolve workers) (max 1 n) in
  if w <= 1 then [| f 0 n |]
  else begin
    let recover = Option.value recover ~default:f in
    let answers = run_workers ~n ~workers:w f in
    let recompute rank =
      let lo, hi = block_bounds ~n ~workers:w rank in
      recover lo hi
    in
    (* every worker is reaped; resolve in rank order, so the first
       range that raises in the parent is the lowest one *)
    Array.mapi
      (fun rank a ->
        match a with
        | Value (v, events, metrics) ->
          Obs.Span.absorb events;
          Obs.Metrics.absorb metrics;
          v
        | Missing -> recompute rank
        | Lost ->
          incr recoveries_total;
          Obs.Metrics.incr m_recovered;
          recompute rank)
      answers
  end
