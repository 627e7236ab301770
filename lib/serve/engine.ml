(* Request evaluation. Answers must be deterministic in the request —
   no wall times, explicit seeds — so that the persistent cache can
   replay them byte-identically. See engine.mli. *)

let m_requests = Obs.Metrics.counter "serve.requests"
let m_hits = Obs.Metrics.counter "serve.cache.hits"
let m_misses = Obs.Metrics.counter "serve.cache.misses"
let m_computed = Obs.Metrics.counter "serve.computed"
let m_degraded = Obs.Metrics.counter "serve.degraded"
let m_deadline = Obs.Metrics.counter "serve.deadline.expired"
let m_cache_bypassed = Obs.Metrics.counter "serve.cache.bypassed"

let zoo_text () =
  String.concat ""
    (List.map
       (fun (name, p) ->
         Fmt.str "%-24s delta=%d  |out|=%d\n" name (Lcl.Problem.delta p)
           (Lcl.Alphabet.size (Lcl.Problem.sigma_out p)))
       Zoo_table.all)

(* Static landscape classification: verdict, bounds and certificate as
   canonical JSON. Purely static — no replay, no simulator invocations —
   so warm and cold answers alike never touch [Local.Runner]. *)
let classify_text problem =
  match Zoo_table.load problem with
  | Error m -> Error m
  | Ok p -> Ok (Classify.Landscape.to_json (Classify.Landscape.classify p) ^ "\n")

let gap_text ~iterations ~max_labels problem =
  match Zoo_table.load problem with
  | Error m -> Error m
  | Ok p ->
    let r =
      Relim.Pipeline.run ~max_iterations:iterations ~max_labels p
    in
    let b = Buffer.create 256 in
    List.iter
      (fun (e : Relim.Pipeline.trace_entry) ->
        Buffer.add_string b
          (Fmt.str "f^%d: %4d labels, 0-round solvable: %b\n" e.iteration
             e.labels e.zero_round))
      r.Relim.Pipeline.trace;
    Buffer.add_string b
      (Fmt.str "verdict: %a\n" Relim.Pipeline.pp_verdict
         r.Relim.Pipeline.verdict);
    Ok (Buffer.contents b)

let simulate_text ?workers ~algo ~n ~seed () =
  if n < 3 then Error (Printf.sprintf "simulate: n must be >= 3 (got %d)" n)
  else
    match Local.Baselines.find algo with
    | None -> Error (Printf.sprintf "unknown algorithm %s" algo)
    | Some (a, problem) ->
      let g = Graph.Builder.oriented_cycle n in
      let o = Local.Runner.run ~seed ?workers ~problem a g in
      Ok
        (Printf.sprintf "%s on oriented C_%d: radius %d, violations %d\n"
           algo n o.Local.Runner.radius_used
           (List.length o.Local.Runner.violations))

let faultsim_text ?workers ~algo ~n ~seed ~fault_seed ~crash ~sever ~retries
    () =
  if n < 3 then Error (Printf.sprintf "faultsim: n must be >= 3 (got %d)" n)
  else
    match Local.Baselines.find algo with
    | None -> Error (Printf.sprintf "unknown algorithm %s" algo)
    | Some (a, problem) ->
      let g = Graph.Builder.oriented_cycle n in
      let spec = Fault.Plan.spec ~crash ~sever () in
      let plan = Fault.Plan.generate ~label:"serve" ~seed:fault_seed ~spec g in
      (match
         Local.Runner.run_resilient ~seed ?workers ~plan ~retries ~problem a g
       with
      | Error e -> Error (Fault.Error.to_string e)
      | Ok o ->
        Ok
          (Json.to_string (Obj (Local.Runner.faultsim_fields ~algo ~n o))
          ^ "\n"))

(* Text of one request, bypassing any cache. [Error] here means the
   REQUEST was bad (F400); exceptions are internal failures (F403) and
   are mapped by [answer]. *)
let answer_text ?workers (req : Protocol.request) : (string, string) result =
  Obs.Metrics.incr m_computed;
  Obs.Span.with_ "serve.compute" (fun () ->
      match req with
      | Ping -> Ok "pong"
      | Zoo -> Ok (zoo_text ())
      | Classify { problem } -> classify_text problem
      | Gap { problem; iterations; max_labels } ->
        gap_text ~iterations ~max_labels problem
      | Simulate { algo; n; seed } -> simulate_text ?workers ~algo ~n ~seed ()
      | Faultsim { algo; n; seed; fault_seed; crash; sever; retries } ->
        faultsim_text ?workers ~algo ~n ~seed ~fault_seed ~crash ~sever
          ~retries ()
      | Stats | Health | Shutdown ->
        Error "handled by the daemon, not the engine")

(* Degradation detection: [Util.Cluster] recovers a dead or reaped
   worker's range in-process and counts it; a computation that bumped
   the counter took the recovery path. The TEXT is unchanged (the
   bit-identical-recovery guarantee), so degraded answers cache like
   healthy ones — only this run's response carries the flag. *)
let answer ?workers (req : Protocol.request) : Protocol.response =
  let before = Util.Cluster.recoveries () in
  match answer_text ?workers req with
  | Ok text ->
    let recovered = Util.Cluster.recoveries () - before in
    if recovered > 0 then begin
      Obs.Metrics.incr m_degraded;
      Protocol.Degraded
        {
          text;
          reason =
            Printf.sprintf
              "%d worker range%s recovered in-process after death or timeout"
              recovered
              (if recovered = 1 then "" else "s");
        }
    end
    else Protocol.Answer text
  | Error message -> Protocol.Failed { code = "F400"; message }
  | exception e ->
    Protocol.Failed { code = "F403"; message = Printexc.to_string e }

type source = Hit | Miss | Uncacheable

(* Cache trouble must not fail a request: a lock held elsewhere past
   the bounded wait ([Busy]) or a failed write (ENOSPC — real or from
   the chaos write hook) degrades to computing without the cache.
   [Corrupt] propagates — the daemon owns quarantine-and-rebuild. *)
let cache_find cache key =
  try Util.Diskcache.find cache key
  with Util.Diskcache.Busy _ | Unix.Unix_error _ ->
    Obs.Metrics.incr m_cache_bypassed;
    None

let cache_add cache key text =
  try Util.Diskcache.add cache key text
  with Util.Diskcache.Busy _ | Unix.Unix_error _ ->
    Obs.Metrics.incr m_cache_bypassed

let answer_tagged ?workers ~cache req : Protocol.response * source =
  Obs.Metrics.incr m_requests;
  match Protocol.fingerprint req with
  | None -> (answer ?workers req, Uncacheable)
  | Some key -> (
    match cache_find cache key with
    | Some stored ->
      Obs.Metrics.incr m_hits;
      (Protocol.Answer stored, Hit)
    | None ->
      Obs.Metrics.incr m_misses;
      let r = answer ?workers req in
      (match Protocol.response_text r with
      | Some text -> cache_add cache key text
      | None -> ());
      (r, Miss))

let answer_cached ?workers ~cache req : Protocol.response =
  fst (answer_tagged ?workers ~cache req)

(* Clamp the cluster drain timeout to the remaining budget while [f]
   computes, so a stalled worker is reaped (and its range recovered)
   instead of overrunning the deadline. *)
let with_cluster_timeout remaining_s f =
  let saved = Util.Cluster.default_timeout () in
  let clamped =
    match saved with
    | Some t -> Some (Float.min t remaining_s)
    | None -> Some remaining_s
  in
  Util.Cluster.set_default_timeout clamped;
  Fun.protect f ~finally:(fun () -> Util.Cluster.set_default_timeout saved)

let answer_batch ?workers ~cache items : (Protocol.response * source) list =
  let t0 = Unix.gettimeofday () in
  (* distinct fingerprints answer once per cycle; the by-key table
     also captures cache hits so duplicates skip even the disk probe *)
  let by_key : (string, Protocol.response) Hashtbl.t = Hashtbl.create 8 in
  List.map
    (fun (req, budget_ms) ->
      let evaluate () =
        match Protocol.fingerprint req with
        | None ->
          Obs.Metrics.incr m_requests;
          (answer ?workers req, Uncacheable)
        | Some key -> (
          match Hashtbl.find_opt by_key key with
          | Some r ->
            Obs.Metrics.incr m_requests;
            Obs.Metrics.incr m_hits;
            (r, Hit)
          | None ->
            let r, src = answer_tagged ?workers ~cache req in
            Hashtbl.add by_key key r;
            (r, src))
      in
      match budget_ms with
      | None -> evaluate ()
      | Some budget_ms ->
        let remaining_s =
          (float_of_int budget_ms /. 1000.) -. (Unix.gettimeofday () -. t0)
        in
        if remaining_s <= 0. then begin
          Obs.Metrics.incr m_requests;
          Obs.Metrics.incr m_deadline;
          (Protocol.Deadline_exceeded { budget_ms }, Uncacheable)
        end
        else with_cluster_timeout remaining_s evaluate)
    items
