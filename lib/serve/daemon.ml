(* The serve daemon: single-threaded select loop, one dispatch cycle
   per select wake-up. All buffered requests of a cycle go through
   [Engine.answer_batch], so identical queries arriving together are
   computed once; repeats across daemon restarts come from the
   persistent cache.

   The daemon itself never spawns a domain (computation runs either
   sequentially or in forked cluster workers), so it stays
   fork-capable for its whole lifetime — the OCaml 5 runtime refuses
   [fork] after any in-process domain (see [Util.Cluster]).

   Robustness invariant: nothing a client or a worker does may tear
   down the select loop. A misbehaving client loses its connection; a
   dead or stalled worker degrades its answer; a corrupt cache file is
   quarantined and rebuilt; overflow is shed with a typed
   [Overloaded]. See daemon.mli and DESIGN.md ("Service
   robustness"). *)

type stats = {
  mutable served : int;
  mutable hits : int;
  mutable misses : int;
  mutable connections : int;
  mutable shed : int;
  mutable degraded : int;
  mutable deadlines : int;
  mutable failed : int;
  mutable quarantined : int;
}

type config = {
  max_pending : int;
  default_budget_ms : int option;
  cluster_timeout_ms : int option;
  chaos : Fault.Service.t;
}

let default_config =
  {
    max_pending = 64;
    default_budget_ms = None;
    cluster_timeout_ms = None;
    chaos = Fault.Service.empty;
  }

(* The hint carried by [Overloaded]. *)
let retry_after_ms = 50

(* [SO_SNDTIMEO] on client connections. *)
let write_timeout_s = 5.

(* [select] returns as soon as a socket is readable, so this only
   bounds how soon [should_stop] is noticed. *)
let poll_interval_s = 0.25

let m_shed = Obs.Metrics.counter "serve.shed"
let m_conn_dropped = Obs.Metrics.counter "serve.conn.dropped"
let m_quarantined = Obs.Metrics.counter "serve.cache.rebuilt"

type conn = {
  fd : Unix.file_descr;
  dec : Util.Framing.decoder;
  mutable alive : bool;
}

let rec accept_pending listen conns stats =
  match Unix.accept ~cloexec:true listen with
  | fd, _ ->
    stats.connections <- stats.connections + 1;
    (* a peer that stops reading blocks its own answer, not the loop *)
    (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO write_timeout_s
     with Unix.Unix_error _ -> ());
    conns := { fd; dec = Util.Framing.decoder (); alive = true } :: !conns;
    accept_pending listen conns stats
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED | Unix.ECONNRESET), _, _)
    ->
    accept_pending listen conns stats

let close_conn c =
  if c.alive then begin
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Drain one readable connection into its decoder and return the
   envelopes that completed. A client that vanishes (EOF — possibly
   mid-frame, the decoder simply dies with the connection), resets, or
   sends garbage (torn frame, bad marshal) just loses its connection —
   the daemon carries on. *)
let read_requests scratch c =
  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
  | 0 ->
    close_conn c;
    []
  | k -> (
    match
      Util.Framing.feed c.dec
        (Bytes.sub_string scratch 0 k)
        ~pos:0 ~len:k;
      let rec drain acc =
        match Util.Framing.next c.dec with
        | Some payload -> drain (Protocol.envelope_of_payload payload :: acc)
        | None -> List.rev acc
      in
      drain []
    with
    | reqs -> reqs
    | exception (Util.Framing.Corrupt _ | Failure _ | Invalid_argument _) ->
      (* [Invalid_argument]: a payload shorter than its Marshal header,
         e.g. the zero-length frame *)
      Obs.Metrics.incr m_conn_dropped;
      close_conn c;
      [])
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    []
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    Obs.Metrics.incr m_conn_dropped;
    close_conn c;
    []

let respond c r =
  if c.alive then
    try Protocol.write_response c.fd r
    with
    | Unix.Unix_error
        (( Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.EAGAIN
         | Unix.EWOULDBLOCK ),
          _, _) ->
      (* gone, or not reading within the send timeout: either way the
         answer is undeliverable — drop the peer, keep the loop *)
      Obs.Metrics.incr m_conn_dropped;
      close_conn c

let json_line fields = Json.to_string (Obj fields) ^ "\n"

let stats_text stats ~cache =
  json_line
    [
      ("serve", String "stats"); ("served", Int stats.served);
      ("cache_hits", Int stats.hits); ("cache_misses", Int stats.misses);
      ("connections", Int stats.connections); ("shed", Int stats.shed);
      ("degraded", Int stats.degraded); ("deadlines", Int stats.deadlines);
      ("failed", Int stats.failed); ("quarantined", Int stats.quarantined);
      ("cache_entries", Int (Util.Diskcache.length cache));
    ]

let health_text stats ~cache ~workers ~queue ~uptime_s =
  json_line
    [
      ("serve", String "health"); ("uptime_s", Int uptime_s);
      ("queue", Int queue); ("workers", Int workers);
      ("can_fork", Bool (Util.Cluster.can_fork ()));
      ("cache_entries", Int (Util.Diskcache.length cache));
      ("served", Int stats.served); ("shed", Int stats.shed);
      ("degraded", Int stats.degraded); ("quarantined", Int stats.quarantined);
    ]

(* -- daemon-side chaos -------------------------------------------------- *)

(* Worker kill/stall travel by the same env hooks the cluster chaos CI
   uses; the empty string parses to "no rank", so clearing is just
   setting "". The disk-full hook raises where a real ENOSPC would. *)
let apply_chaos_event ~garble = function
  | Fault.Service.Kill_worker r ->
    Unix.putenv Util.Cluster.kill_env_var (string_of_int r)
  | Fault.Service.Stall_worker r ->
    Unix.putenv Util.Cluster.stall_env_var (string_of_int r)
  | Fault.Service.Cache_corrupt -> garble ()
  | Fault.Service.Disk_full ->
    Util.Diskcache.set_write_hook
      (Some
         (fun _key -> raise (Unix.Unix_error (Unix.ENOSPC, "write", "chaos"))))
  | Fault.Service.Torn_frame | Fault.Service.Drop_connection ->
    (* client-side events: not ours to apply *)
    ()

let clear_chaos () =
  Unix.putenv Util.Cluster.kill_env_var "";
  Unix.putenv Util.Cluster.stall_env_var "";
  Util.Diskcache.set_write_hook None

let serve ~socket_path ~cache_path ?workers ?(config = default_config)
    ?(should_stop = fun () -> false) ?(on_ready = fun () -> ()) () =
  let stats =
    {
      served = 0;
      hits = 0;
      misses = 0;
      connections = 0;
      shed = 0;
      degraded = 0;
      deadlines = 0;
      failed = 0;
      quarantined = 0;
    }
  in
  let started = Unix.gettimeofday () in
  (* a client gone mid-response must cost its connection, not the
     process: EPIPE has to surface as an exception, not a signal *)
  (if Sys.unix then
     try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
  (if Sys.file_exists socket_path then
     try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let listen = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cache =
    let c, quarantined_to = Util.Diskcache.open_resilient cache_path in
    if quarantined_to <> None then begin
      stats.quarantined <- stats.quarantined + 1;
      Obs.Metrics.incr m_quarantined
    end;
    ref c
  in
  (* corrupt mid-run: move the bad file aside, rebuild fresh — warm
     answers recompute to the same bytes, so nothing but time is lost *)
  let rebuild_cache () =
    (try Util.Diskcache.close !cache with Unix.Unix_error _ -> ());
    (try ignore (Util.Diskcache.quarantine cache_path)
     with Unix.Unix_error _ | Sys_error _ -> ());
    let fresh, _ = Util.Diskcache.open_resilient cache_path in
    cache := fresh;
    stats.quarantined <- stats.quarantined + 1;
    Obs.Metrics.incr m_quarantined
  in
  (* chaos cache corruption: append an impossible frame header, then
     probe with [sync] — exactly the path a real torn write takes *)
  let garble_cache () =
    (try
       let fd =
         Unix.openfile cache_path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644
       in
       ignore (Unix.write fd (Bytes.make 4 '\xff') 0 4);
       Unix.close fd
     with Unix.Unix_error _ -> ());
    match Util.Diskcache.sync !cache with
    | () -> ()
    | exception (Util.Diskcache.Corrupt _ | Util.Diskcache.Busy _) ->
      rebuild_cache ()
  in
  let saved_cluster_timeout = Util.Cluster.default_timeout () in
  (match config.cluster_timeout_ms with
  | Some ms ->
    Util.Cluster.set_default_timeout (Some (float_of_int ms /. 1000.))
  | None -> ());
  let stop_requested = ref false in
  let cleanup_conns = ref [] in
  let finally () =
    List.iter close_conn !cleanup_conns;
    (try Unix.close listen with Unix.Unix_error _ -> ());
    (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
    Util.Cluster.set_default_timeout saved_cluster_timeout;
    (if not (Fault.Service.is_empty config.chaos) then clear_chaos ());
    (try Util.Diskcache.flush !cache with Unix.Unix_error _ -> ());
    Util.Diskcache.close !cache
  in
  (* ordinal of the next engine-level request, for chaos targeting *)
  let ordinal = ref 0 in
  (* evaluate a cycle's admitted engine requests; a corrupt cache
     surfaces here (from the locked re-scan) and is rebuilt, then the
     batch retried once against the fresh cache *)
  let eval_batch items =
    try Engine.answer_batch ?workers ~cache:!cache items
    with Util.Diskcache.Corrupt _ ->
      rebuild_cache ();
      Engine.answer_batch ?workers ~cache:!cache items
  in
  let eval_engine items =
    if Fault.Service.is_empty config.chaos then begin
      ordinal := !ordinal + List.length items;
      eval_batch items
    end
    else
      (* per-item dispatch so each ordinal's events cover exactly one
         request; batch dedup is lost but the cache still collapses
         repeats, and chaos runs are not benchmarks *)
      List.map
        (fun item ->
          let o = !ordinal in
          incr ordinal;
          let events =
            List.filter
              (fun e -> not (Fault.Service.client_side e))
              (Fault.Service.at config.chaos o)
          in
          List.iter (apply_chaos_event ~garble:garble_cache) events;
          Fun.protect
            ~finally:(fun () -> if events <> [] then clear_chaos ())
            (fun () ->
              match eval_batch [ item ] with
              | [ r ] -> r
              | _ -> (Protocol.Failed { code = "F403"; message = "internal" },
                      Engine.Uncacheable)))
        items
  in
  Fun.protect ~finally (fun () ->
      Unix.bind listen (Unix.ADDR_UNIX socket_path);
      Unix.listen listen 64;
      Unix.set_nonblock listen;
      on_ready ();
      let scratch = Bytes.create 65536 in
      let conns = cleanup_conns in
      while not (!stop_requested || should_stop ()) do
        conns := List.filter (fun c -> c.alive) !conns;
        let fds = listen :: List.map (fun c -> c.fd) !conns in
        let readable =
          match Unix.select fds [] [] poll_interval_s with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          | exception Unix.Unix_error (Unix.EBADF, _, _) -> []
        in
        if List.memq listen readable then accept_pending listen conns stats;
        (* one dispatch cycle: everything buffered right now, batched *)
        let pending =
          List.concat_map
            (fun c ->
              if c.alive && List.memq c.fd readable then
                List.map (fun e -> (c, e)) (read_requests scratch c)
              else [])
            !conns
        in
        if pending <> [] then begin
          (* admission control: daemon-level requests always pass;
             engine-level beyond [max_pending] shed with a hint *)
          let admitted = ref 0 in
          let items =
            List.map
              (fun ((_, e) as p) ->
                match e.Protocol.req with
                | Protocol.Stats | Protocol.Health | Protocol.Shutdown ->
                  (p, `Daemon)
                | _ ->
                  if !admitted >= config.max_pending then (p, `Shed)
                  else begin
                    incr admitted;
                    (p, `Engine)
                  end)
              pending
          in
          let queue_depth = !admitted in
          let engine_items =
            List.filter_map
              (fun (((_, e) : conn * Protocol.envelope), k) ->
                if k = `Engine then
                  Some
                    ( e.Protocol.req,
                      (match e.Protocol.budget_ms with
                      | Some _ as b -> b
                      | None -> config.default_budget_ms) )
                else None)
              items
          in
          let answered = ref (eval_engine engine_items) in
          List.iter
            (fun (((c, e) : conn * Protocol.envelope), kind) ->
              stats.served <- stats.served + 1;
              match kind with
              | `Daemon -> (
                match e.Protocol.req with
                | Protocol.Stats ->
                  respond c (Protocol.Answer (stats_text stats ~cache:!cache))
                | Protocol.Health ->
                  respond c
                    (Protocol.Answer
                       (health_text stats ~cache:!cache
                          ~workers:
                            (match workers with
                            | Some w -> w
                            | None -> Util.Cluster.default_workers ())
                          ~queue:queue_depth
                          ~uptime_s:
                            (int_of_float (Unix.gettimeofday () -. started))))
                | Protocol.Shutdown ->
                  stop_requested := true;
                  respond c (Protocol.Answer "shutting down\n")
                | _ -> assert false)
              | `Shed ->
                stats.shed <- stats.shed + 1;
                Obs.Metrics.incr m_shed;
                respond c (Protocol.Overloaded { retry_after_ms })
              | `Engine -> (
                match !answered with
                | (r, src) :: rest ->
                  answered := rest;
                  (match src with
                  | Engine.Hit -> stats.hits <- stats.hits + 1
                  | Engine.Miss -> stats.misses <- stats.misses + 1
                  | Engine.Uncacheable -> ());
                  (match r with
                  | Protocol.Degraded _ ->
                    stats.degraded <- stats.degraded + 1
                  | Protocol.Deadline_exceeded _ ->
                    stats.deadlines <- stats.deadlines + 1
                  | Protocol.Failed _ -> stats.failed <- stats.failed + 1
                  | Protocol.Answer _ | Protocol.Overloaded _ -> ());
                  respond c r
                | [] ->
                  (* impossible: one batch answer per engine request *)
                  respond c
                    (Protocol.Failed
                       { code = "F403"; message = "internal: batch underflow" })))
            items;
          (* keep the on-disk cache durable after every cycle that
             could have extended it *)
          try Util.Diskcache.flush !cache with Unix.Unix_error _ -> ()
        end
      done);
  stats

(* -- client ------------------------------------------------------------- *)

let with_connection ?recv_timeout_s ~socket_path f =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      (match recv_timeout_s with
      | Some s -> (
        try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
        with Unix.Unix_error _ -> ())
      | None -> ());
      f fd)

let transport_failed message = Protocol.Failed { code = "F401"; message }

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let sent = ref 0 in
  while !sent < len do
    match Unix.write fd b !sent (len - !sent) with
    | 0 -> raise (Unix.Unix_error (Unix.EPIPE, "write", ""))
    | k -> sent := !sent + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let request_batch ?budget_ms ?recv_timeout_s ~socket_path reqs :
    Protocol.response list =
  match
    with_connection ?recv_timeout_s ~socket_path (fun fd ->
        (* one write: the whole batch lands in one dispatch cycle *)
        write_all fd
          (String.concat ""
             (List.map (Protocol.encode_request ?budget_ms) reqs));
        List.map
          (fun _ ->
            match Protocol.read_response fd with
            | Some r -> r
            | None ->
              transport_failed "daemon closed the connection without answering")
          reqs)
  with
  | rs -> rs
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    List.map
      (fun _ -> transport_failed "timed out waiting for the daemon's answer")
      reqs
  | exception Unix.Unix_error (e, _, _) ->
    let msg =
      transport_failed
        (Printf.sprintf "cannot reach daemon at %s: %s" socket_path
           (Unix.error_message e))
    in
    List.map (fun _ -> msg) reqs
  | exception Util.Framing.Corrupt m ->
    List.map (fun _ -> transport_failed ("corrupt response: " ^ m)) reqs

let no_retry = Util.Backoff.create ~max_retries:0 ~seed:0 ()

(* Each attempt is a one-element batch. F401 comes only from the
   client side, so it marks exactly the transport failures. *)
let request ?budget_ms ?recv_timeout_s ?(retry = no_retry) ~socket_path req :
    Protocol.response =
  let rec go attempt =
    let r =
      List.hd (request_batch ?budget_ms ?recv_timeout_s ~socket_path [ req ])
    in
    let again ~floor_ms =
      match Util.Backoff.delay_ms retry ~attempt with
      | Some ms ->
        Util.Backoff.sleep_ms (max ms floor_ms);
        go (attempt + 1)
      | None -> r
    in
    match r with
    | Protocol.Overloaded { retry_after_ms } ->
      (* the daemon shed us: honor its hint, bounded by our budget *)
      again ~floor_ms:retry_after_ms
    | Protocol.Failed { code = "F401"; _ } -> again ~floor_ms:0
    | _ -> r
  in
  go 0

(* -- a forked daemon ---------------------------------------------------- *)

(* Bounds both the wait for readiness and the teardown. *)
let lifecycle_timeout_s = 10.

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

(* The cache file and every copy [Util.Diskcache.quarantine] moved
   aside ([<cache>.quarantined], [<cache>.quarantined.<k>]). *)
let remove_cache_files cache_path =
  let dir = Filename.dirname cache_path in
  let prefix = Filename.basename cache_path ^ ".quarantined" in
  remove_quietly cache_path;
  Array.iter
    (fun f ->
      if String.starts_with ~prefix f then
        remove_quietly (Filename.concat dir f))
    (try Sys.readdir dir with Sys_error _ -> [||])

(* True once the child's [on_ready] wrote its byte; false on EOF (the
   child died first) or at [deadline]. *)
let rec await_ready fd ~deadline =
  let left = deadline -. Unix.gettimeofday () in
  if left <= 0. then false
  else
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> await_ready fd ~deadline
    | _ -> Unix.read fd (Bytes.create 1) 0 1 = 1
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> await_ready fd ~deadline

(* Wait for [pid] until [deadline], then SIGKILL it. *)
let rec reap pid ~deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Unix.gettimeofday () < deadline ->
    Unix.sleepf 0.005;
    reap pid ~deadline
  | 0, _ ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap pid ~deadline:infinity
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid ~deadline
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0

let status_text = function
  | Unix.WEXITED c -> Printf.sprintf "exit status %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let with_forked ?socket_path ?workers ?config f =
  let cache_path = Filename.temp_file "lcl-serve-" ".cache" in
  let socket_path =
    match socket_path with
    | Some p -> p
    | None -> Filename.remove_extension cache_path ^ ".sock"
  in
  let ready_r, ready_w = Unix.pipe ~cloexec:true () in
  let parent = Unix.getpid () in
  let pid =
    try Unix.fork ()
    with e ->
      Unix.close ready_r;
      Unix.close ready_w;
      remove_cache_files cache_path;
      raise e
  in
  if pid = 0 then begin
    Unix.close ready_r;
    let on_ready () =
      ignore (Unix.write_substring ready_w "r" 0 1);
      Unix.close ready_w
    in
    (* an orphaned daemon stops by itself *)
    let should_stop () = Unix.getppid () <> parent in
    Unix._exit
      (match
         serve ~socket_path ~cache_path ?workers ?config ~should_stop ~on_ready
           ()
       with
      | _ -> 0
      | exception _ -> 1)
  end;
  Unix.close ready_w;
  let ready =
    Fun.protect
      ~finally:(fun () -> Unix.close ready_r)
      (fun () ->
        await_ready ready_r
          ~deadline:(Unix.gettimeofday () +. lifecycle_timeout_s))
  in
  let stop () =
    let deadline = Unix.gettimeofday () +. lifecycle_timeout_s in
    if ready then
      ignore
        (request ~recv_timeout_s:lifecycle_timeout_s ~socket_path
           Protocol.Shutdown);
    let status = reap pid ~deadline in
    remove_quietly socket_path;
    remove_cache_files cache_path;
    status
  in
  let fail what status =
    failwith
      (Printf.sprintf "serve daemon on %s %s (%s)" socket_path what
         (status_text status))
  in
  if not ready then fail "never became ready" (stop ());
  match f socket_path with
  | v -> (
    match stop () with
    | Unix.WEXITED 0 -> v
    | status -> fail "did not exit cleanly" status)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (stop ());
    Printexc.raise_with_backtrace e bt
