(* The serve-mix workload: one client in a closed loop against a
   [Serve.Daemon] forked into its own process, opening one connection
   per request as [lcl_tool client] does. Set-up fills a fresh cache
   file through the daemon with a seeded warm set; the timed phase
   mixes repeats of the warm set (hits) with fresh fingerprints
   (misses) at a fixed hit share. *)

open Meter
module P = Serve.Protocol

(* Every block of [block] requests holds exactly one miss, at a seeded
   position, so the hit share is 1 - 1/block = 80% in every run. No
   recorded serve traffic exists to take the share from; 80% is an
   assumption: a landscape query service answers mostly repeated
   questions, and at this share a 25 s run collects thousands of hits
   and hundreds of misses while misses still take most of the time. *)
let block = 5

(* [peak_requests_per_s] is taken over windows of [window] consecutive
   requests: three miss cycles, so every window holds the same
   composition — 48 hits, and each miss kind with, for Simulate and
   Faultsim, each algorithm once. *)
let window = 3 * 4 * block

let sim_n = 4096

let local_algos = [| "cv-coloring"; "mis"; "matching" |]

(* -- request generation ---------------------------------------------------- *)

type kind = Simulate | Faultsim | Gap | Classify

let kind_of = function
  | P.Simulate _ -> Simulate
  | P.Faultsim _ -> Faultsim
  | P.Gap _ -> Gap
  | _ -> Classify

let kind_name = function
  | Simulate -> "simulate"
  | Faultsim -> "faultsim"
  | Gap -> "gap"
  | Classify -> "classify"

let simulate rng algo = P.Simulate { algo; n = sim_n; seed = Util.Prng.bits rng }

let faultsim rng algo =
  P.Faultsim
    {
      algo;
      n = sim_n;
      seed = Util.Prng.bits rng;
      fault_seed = Util.Prng.bits rng;
      crash = 0.02;
      sever = 0.02;
      retries = 1;
    }

(* [p]'s canonical text under another name: the text starts with the
   [problem <name> delta <d>] header. The fingerprint digests that
   text, so a new name gives a new fingerprint, while the name changes
   nothing the engine computes: each draw below gets a name of its own
   and can never repeat an earlier one. *)
let renamed name p =
  let text = Lcl.Parse.to_string p in
  if not (String.starts_with ~prefix:"problem " text) then
    failwith "serve-mix: canonical problem text without its header";
  let eol = String.index text '\n' in
  Printf.sprintf "problem %s delta %d%s" name (Lcl.Problem.delta p)
    (String.sub text eol (String.length text - eol))

(* A zoo problem, sent as its source text, through the Theorem 3.10
   pipeline for one iteration with a seeded label cap. At two
   iterations two zoo entries cost 0.3-0.5 s a request, and at three
   iterations with 256 labels one of them grows past several GB. *)
let gap rng ~name =
  let zoo = Array.of_list Serve.Zoo_table.all in
  let _, p = zoo.(Util.Prng.int rng (Array.length zoo)) in
  P.Gap
    { problem = renamed name p; iterations = 1;
      max_labels = 8 + Util.Prng.int rng 256 }

(* Seeded random degree-2 problems with two output labels: over 600
   draws at most 0.13 s and 8 MB each. Three labels reach 0.8 s and
   200 MB about once in fifty draws, which would set the daemon's peak
   RSS by seed. Degree 3 is left out: over the fuzz corpus its
   classification has a p90 of seconds and a tail of minutes, so a
   run's length would hinge on a few requests. *)
let random_classify rng ~name =
  P.Classify
    { problem = renamed name (Fuzz.Gen.random_problem rng ~k:2 ~delta:2) }

(* The misses of one cycle: one of each request kind, uniformly, in a
   seeded order. Simulate and Faultsim take the algorithms in turn
   from cycle to cycle, so over three cycles each algorithm runs once
   in each. Luby is left out: its radius at n = 4096 makes one request
   cost seconds; torus-color-cold measures that Iterative cost
   directly. *)
let miss_cycle rng ~round ~name =
  let algo k = local_algos.((round + k) mod Array.length local_algos) in
  let c =
    [|
      (fun () -> simulate rng (algo 0));
      (fun () -> faultsim rng (algo 1));
      (fun () -> gap rng ~name:(name ()));
      (fun () -> random_classify rng ~name:(name ()));
    |]
  in
  Util.Prng.shuffle rng c;
  Array.to_list c

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The shipped problem sources, sent as text. *)
let problem_sources () =
  let dir = "problems" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".lcl")
  |> List.sort compare
  |> List.map (fun f -> read_file (Filename.concat dir f))

let warm_set rng =
  let zoo = List.map (fun (name, _) -> P.Classify { problem = name }) Serve.Zoo_table.all in
  let files = List.map (fun src -> P.Classify { problem = src }) (problem_sources ()) in
  let sims =
    List.concat_map
      (fun a -> [ simulate rng a; simulate rng a; faultsim rng a; faultsim rng a ])
      (Array.to_list local_algos)
  in
  let name i = Printf.sprintf "warm-%d" i in
  zoo @ files @ sims
  @ List.init 6 (fun i -> gap rng ~name:(name i))
  @ List.init 4 (fun i -> random_classify rng ~name:(name (6 + i)))

let fingerprint req =
  match P.fingerprint req with
  | Some k -> k
  | None -> failwith "serve-mix: generated an uncacheable request"

(* -- daemon lifecycle ------------------------------------------------------ *)

let scratch_dir = Filename.concat "perfbench" ".scratch"

type daemon = { pid : int; socket : string; cache : string }

let remove path = try Sys.remove path with Sys_error _ -> ()

let live : daemon list ref = ref []

let stop d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (match
       Serve.Daemon.request ~recv_timeout_s:10. ~socket_path:d.socket P.Shutdown
     with
    | _ -> ());
    (* the daemon exits after answering; a wedged one is killed *)
    let rec reap tries =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when tries > 0 ->
        Unix.sleepf 0.01;
        reap (tries - 1)
      | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap 1000;
    remove d.socket;
    remove d.cache
  end

(* Every exit path, including [exit] after a failed check, stops the
   daemons this process started and removes their files. *)
let () =
  at_exit (fun () ->
      List.iter stop !live;
      try Unix.rmdir scratch_dir with Unix.Unix_error _ -> ())

let start_daemon ~tag =
  (try Unix.mkdir scratch_dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* relative paths: a socket path must fit in 108 bytes wherever the
     checkout lives *)
  let base =
    Filename.concat scratch_dir (Printf.sprintf "%d-%s" (Unix.getpid ()) tag)
  in
  let socket = base ^ ".sock" and cache = base ^ ".cache" in
  remove socket;
  remove cache;
  let parent = Unix.getpid () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    (* the benchmark's exit-on-signal handlers are not the daemon's *)
    List.iter
      (fun s -> Sys.set_signal s Sys.Signal_default)
      [ Sys.sigterm; Sys.sigint ];
    let code =
      try
        ignore
          (Serve.Daemon.serve ~socket_path:socket ~cache_path:cache ~workers:1
             ~should_stop:(fun () -> Unix.getppid () <> parent)
             ());
        0
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    let d = { pid; socket; cache } in
    live := d :: !live;
    (* ready once a ping is answered *)
    let rec wait tries =
      match
        Serve.Daemon.request ~recv_timeout_s:5. ~socket_path:socket P.Ping
      with
      | P.Answer "pong" -> ()
      | _ when tries > 0 ->
        Unix.sleepf 0.002;
        wait (tries - 1)
      | r -> failwith ("daemon not ready: " ^ P.response_to_string r)
    in
    wait 5000;
    d

(* -- checks ---------------------------------------------------------------- *)

let send d req = Serve.Daemon.request ~recv_timeout_s:120. ~socket_path:d.socket req

(* A response passes when it is an [Answer]; a Simulate answer must
   also report zero violations. *)
let answer_ok req = function
  | P.Answer text -> (
    match req with
    | P.Simulate _ ->
      let suffix = "violations 0\n" in
      String.ends_with ~suffix text
    | _ -> true)
  | _ -> false

type tallies = {
  mutable served : int;
  mutable hits : int;
  mutable misses : int;
}

(* Fill the cache through the daemon; returns the answer text of every
   warm fingerprint. Duplicate fingerprints in the warm set (a problem
   file equal to a zoo entry) are cache hits already. *)
let fill d warm tallies =
  let texts = Hashtbl.create 64 in
  let ok =
    List.for_all
      (fun req ->
        let key = fingerprint req in
        let r = send d req in
        tallies.served <- tallies.served + 1;
        (match Hashtbl.find_opt texts key with
        | Some _ -> tallies.hits <- tallies.hits + 1
        | None -> tallies.misses <- tallies.misses + 1);
        match r with
        | P.Answer text when answer_ok req r -> (
          match Hashtbl.find_opt texts key with
          | Some t -> t = text
          | None ->
            Hashtbl.replace texts key text;
            true)
        | r ->
          note "warm request failed: %s" (P.response_to_string r);
          false)
      warm
  in
  (texts, ok)

let stats_counter text key =
  match Fault.Json.(field key (of_string text)) with
  | Fault.Json.Int v -> v
  | _ -> failwith ("stats: no counter " ^ key)

(* -- traced replay ------------------------------------------------------------ *)

(* The daemon's per-request path, replayed in this process on a copy of
   the daemon's cache: decode the envelope, fingerprint, probe the
   cache, compute on a miss and store, flush, write the response to a
   socketpair. Sums are ns per layer. *)
type acc = {
  mutable requests : int;
  mutable round_trip : int;
  mutable encode : int;
  mutable decode : int;
  mutable request_bytes : int;
  mutable response_bytes : int;
  mutable fp : int;
  mutable find : int;
  mutable finds : int;
  mutable found : int;
  mutable add : int;
  mutable flush : int;
  mutable write : int;
  mutable engine : (kind * int) list;
  mutable clock_reads : int;
  mutable replay : int;
  mutable minor : float;
  mutable promoted : float;
  mutable major : int;
}

let new_acc () =
  { requests = 0; round_trip = 0; encode = 0; decode = 0; request_bytes = 0;
    response_bytes = 0; fp = 0; find = 0; finds = 0; found = 0; add = 0;
    flush = 0; write = 0; engine = []; clock_reads = 0; replay = 0;
    minor = 0.; promoted = 0.; major = 0 }

let payload_of_frame frame =
  let dec = Util.Framing.decoder () in
  Util.Framing.feed dec frame ~pos:0 ~len:(String.length frame);
  Option.get (Util.Framing.next dec)

let replay acc cache (sock_w, sock_r) req ~expect =
  let c = Lazy.force clock_cost_ns in
  let g0 = gc_now () in
  let w0 = now_ns () in
  let time f =
    let t0 = now_ns () in
    let r = f () in
    acc.clock_reads <- acc.clock_reads + 2;
    (r, now_ns () - t0 - c)
  in
  let frame, dt = time (fun () -> P.encode_request req) in
  acc.encode <- acc.encode + dt;
  acc.request_bytes <- acc.request_bytes + String.length frame;
  let payload = payload_of_frame frame in
  let env, dt = time (fun () -> P.envelope_of_payload payload) in
  acc.decode <- acc.decode + dt;
  let key, dt = time (fun () -> P.fingerprint env.P.req) in
  acc.fp <- acc.fp + dt;
  let key = Option.get key in
  let found, dt = time (fun () -> Util.Diskcache.find cache key) in
  acc.find <- acc.find + dt;
  acc.finds <- acc.finds + 1;
  let response =
    match found with
    | Some text ->
      acc.found <- acc.found + 1;
      P.Answer text
    | None ->
      let r, dt = time (fun () -> Serve.Engine.answer ~workers:1 env.P.req) in
      let k = kind_of env.P.req in
      acc.engine <-
        (k, dt + Option.value ~default:0 (List.assoc_opt k acc.engine))
        :: List.remove_assoc k acc.engine;
      (match P.response_text r with
      | Some text ->
        let (), dt = time (fun () -> Util.Diskcache.add cache key text) in
        acc.add <- acc.add + dt
      | None -> ());
      r
  in
  let (), dt = time (fun () -> Util.Diskcache.flush cache) in
  acc.flush <- acc.flush + dt;
  let (), dt = time (fun () -> P.write_response sock_w response) in
  acc.write <- acc.write + dt;
  acc.replay <- acc.replay + (now_ns () - w0);
  acc.clock_reads <- acc.clock_reads + 2;
  let gd = gc_diff g0 (gc_now ()) in
  acc.minor <- acc.minor +. gd.minor_words;
  acc.promoted <- acc.promoted +. gd.promoted_words;
  acc.major <- acc.major + gd.major;
  (* the whole frame is buffered in the socketpair by now: peek its
     size, then read it back and compare *)
  let buf = Bytes.create (1 lsl 20) in
  acc.response_bytes <-
    acc.response_bytes
    + Unix.recv sock_r buf 0 (Bytes.length buf) [ Unix.MSG_PEEK ];
  P.read_response sock_r = Some response && response = expect


(* -- the workload ------------------------------------------------------------ *)

type result = {
  setups : float list;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* One set-up: fork the daemon on a fresh cache, then fill the cache
   with the warm set through it. The daemon is forked before this
   process builds anything, so its peak RSS is its own. *)
let setup ~seed ~tag =
  let d = start_daemon ~tag in
  let tallies = { served = 1 (* the readiness ping *); hits = 0; misses = 0 } in
  let rng = Util.Prng.create ~seed in
  let warm = warm_set rng in
  let texts, ok = fill d warm tallies in
  (d, rng, warm, texts, tallies, ok)

let sum_ns l = List.fold_left (fun a (_, ns) -> a + ns) 0 l

let measure ~seed ~seconds ~trace ~setups =
  let times = ref [] in
  let rec go k =
    let t0 = if k = 0 then process_start else now_s () in
    let ((d, _, _, _, _, _) as s) = setup ~seed ~tag:(string_of_int k) in
    times := (now_s () -. t0) :: !times;
    if k + 1 < setups then begin
      stop d;
      go (k + 1)
    end
    else s
  in
  let d, rng, warm, texts, tallies, setup_ok = go 0 in
  let warm = Array.of_list warm in
  let used = Hashtbl.create 4096 in
  Array.iter (fun r -> Hashtbl.replace used (fingerprint r) ()) warm;
  (* a miss is a fingerprint neither the warm set nor an earlier miss
     used. Gap and Classify misses are fresh by their names; a Simulate
     or Faultsim seed that repeats one (62 random bits) is drawn again *)
  let cycle = ref [] and round = ref 0 and names = ref 0 in
  let name () =
    incr names;
    Printf.sprintf "miss-%d" !names
  in
  let rec fresh gen =
    let r = gen () in
    let key = fingerprint r in
    if Hashtbl.mem used key then fresh gen
    else begin
      Hashtbl.replace used key ();
      r
    end
  in
  let next_miss () =
    if !cycle = [] then begin
      cycle := miss_cycle rng ~round:!round ~name;
      incr round
    end;
    match !cycle with
    | gen :: rest ->
      cycle := rest;
      fresh gen
    | [] -> assert false
  in
  let replay_state =
    if not trace then None
    else begin
      let copy = d.cache ^ ".replay" in
      Out_channel.with_open_bin copy (fun oc ->
          Out_channel.output_string oc (read_file d.cache));
      let cache = Util.Diskcache.open_ copy in
      at_exit (fun () -> remove copy);
      Some (cache, Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0)
    end
  in
  let acc = new_acc () in
  let hit_lat = ref [] and miss_lat = ref [] and by_kind = ref [] in
  let window_ms = ref 0. and windows = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let miss_slot = ref 0 in
  let t_start = now_s () in
  let deadline = t_start +. seconds in
  while now_s () < deadline do
    let i = !attempted in
    if i mod block = 0 then miss_slot := Util.Prng.int rng block;
    let is_miss = i mod block = !miss_slot in
    let req =
      if is_miss then next_miss ()
      else warm.(Util.Prng.int rng (Array.length warm))
    in
    let t0 = now_ns () in
    let r = send d req in
    let dt = now_ns () - t0 in
    incr attempted;
    tallies.served <- tallies.served + 1;
    let ok =
      answer_ok req r
      &&
      if is_miss then true
      else P.Answer (Hashtbl.find texts (fingerprint req)) = r
    in
    let ms = ms_of_ns dt in
    window_ms := !window_ms +. ms;
    if (i + 1) mod window = 0 then begin
      windows := !window_ms :: !windows;
      window_ms := 0.
    end;
    if is_miss then begin
      tallies.misses <- tallies.misses + 1;
      miss_lat := ms :: !miss_lat;
      by_kind := (kind_of req, ms) :: !by_kind
    end
    else begin
      tallies.hits <- tallies.hits + 1;
      hit_lat := ms :: !hit_lat
    end;
    let replay_ok =
      match replay_state with
      | None -> true
      | Some (cache, pair) ->
        acc.requests <- acc.requests + 1;
        acc.round_trip <- acc.round_trip + dt;
        replay acc cache pair req ~expect:r
    in
    if not (ok && replay_ok) then begin
      incr failed;
      note "request %d (%s) failed: %s" i
        (kind_name (kind_of req))
        (P.response_to_string r)
    end
  done;
  let wall = now_s () -. t_start in
  (* the daemon's own counters must match this client's tallies; the
     Stats request counts itself as served *)
  let stats_text =
    match send d P.Stats with
    | P.Answer t -> t
    | r -> failwith ("stats: " ^ P.response_to_string r)
  in
  let counter = stats_counter stats_text in
  let counters_ok =
    counter "served" = tallies.served + 1
    && counter "cache_hits" = tallies.hits
    && counter "cache_misses" = tallies.misses
    && counter "failed" = 0 && counter "shed" = 0 && counter "degraded" = 0
  in
  if not counters_ok then
    note "daemon counters disagree with the client: %s (client: served %d, \
          hits %d, misses %d)"
      (String.trim stats_text) (tallies.served + 1) tallies.hits tallies.misses;
  let rss = peak_rss_mb (string_of_int d.pid) in
  stop d;
  (match replay_state with
  | Some (cache, (a, b)) ->
    Util.Diskcache.close cache;
    Unix.close a;
    Unix.close b
  | None -> ());
  let completed = !attempted - !failed in
  let failed = !failed + if setup_ok && counters_ok then 0 else 1 in
  note "requests: %d (%d hits, %d misses), %d failed, wall %.3f s; over \
        the whole phase %.2f requests/s"
    !attempted (List.length !hit_lat) (List.length !miss_lat) failed wall
    (float_of_int completed /. wall);
  note "hit latency p50 %.3f ms p99 %.3f ms; miss latency p50 %.2f ms p90 %.2f ms"
    (median !hit_lat) (percentile !hit_lat 0.99) (median !miss_lat)
    (percentile !miss_lat 0.9);
  note "hit ms: %s" (spread_line !hit_lat);
  note "miss ms: %s" (spread_line !miss_lat);
  List.iter
    (fun k ->
      let l = List.filter_map (fun (k', ms) -> if k = k' then Some ms else None) !by_kind in
      if l <> [] then
        note "  %-8s misses %4d  p50 %8.2f ms  p90 %8.2f ms" (kind_name k)
          (List.length l) (median l) (percentile l 0.9))
    [ Simulate; Faultsim; Gap; Classify ];
  let metrics =
    if not trace then
      [
        ("peak_requests_per_s", peak_rate ~requests:window !windows);
        ("peak_rss_mb", rss);
      ]
    else
      let reqs = float_of_int (max 1 acc.requests) in
      let per_req ns = ms_of_ns ns /. reqs in
      let engine k = Option.value ~default:0 (List.assoc_opt k acc.engine) in
      let in_process =
        acc.encode + acc.decode + acc.fp + acc.find + sum_ns acc.engine
        + acc.add + acc.flush + acc.write
      in
      [
        ("protocol.encode_ms", per_req acc.encode);
        ("protocol.decode_ms", per_req acc.decode);
        ("protocol.fingerprint_ms", per_req acc.fp);
        ("protocol.write_ms", per_req acc.write);
        ("protocol.request_bytes", float_of_int acc.request_bytes /. reqs);
        ("protocol.response_bytes", float_of_int acc.response_bytes /. reqs);
        ("diskcache.find_ms", per_req acc.find);
        ("diskcache.add_ms", per_req acc.add);
        ("diskcache.flush_ms", per_req acc.flush);
        ("diskcache.hit_ratio",
         float_of_int acc.found /. float_of_int (max 1 acc.finds));
        ("engine.simulate_ms", per_req (engine Simulate));
        ("engine.faultsim_ms", per_req (engine Faultsim));
        ("engine.classify_ms", per_req (engine Classify));
        ("engine.gap_ms", per_req (engine Gap));
        ("daemon.round_trip_ms", per_req acc.round_trip);
        ("daemon.hit_p50_ms", median !hit_lat);
        ("daemon.hit_p99_ms", percentile !hit_lat 0.99);
        ("daemon.miss_p50_ms", median !miss_lat);
        ("daemon.miss_p90_ms", percentile !miss_lat 0.9);
        ("daemon.transport_ms", per_req (acc.round_trip - in_process));
        ("daemon.failed", float_of_int (counter "failed"));
        ("daemon.shed", float_of_int (counter "shed"));
        ("daemon.degraded", float_of_int (counter "degraded"));
        ("gc.minor_mb", mb_of_words acc.minor /. reqs);
        ("gc.promoted_mb", mb_of_words acc.promoted /. reqs);
        ("gc.major_collections", float_of_int acc.major /. reqs);
        ("trace.overhead_pct",
         trace_overhead_pct ~clock_reads:acc.clock_reads ~replay_ns:acc.replay);
      ]
  in
  { setups = List.rev !times; attempted = !attempted; failed; metrics }
