(* The multi-process backend: framing, map_ranges, the disk cache, the
   serve engine/daemon, and the runner worker matrix.

   ORDERING MATTERS. The OCaml 5 runtime refuses [Unix.fork] in any
   process that has ever created a domain, so these suites must run
   before every suite that spawns domains in-process (they are
   registered first in [Test_main]); and within the runner matrix the
   in-parent multi-domain cell runs dead last — everything after it
   exercises the no-fork fallback, which the final case pins down
   explicitly. *)

open Alcotest

let check_fork_available () =
  check bool "forking available (suite must run before domain tests)" true
    (Util.Cluster.can_fork ())

(* -- framing ------------------------------------------------------------- *)

let test_framing_encode_header () =
  let f = Util.Framing.encode "abc" in
  check int "frame length" (Util.Framing.header_bytes + 3) (String.length f);
  check string "payload" "abc"
    (String.sub f Util.Framing.header_bytes 3);
  (* little-endian length *)
  check int "header byte 0" 3 (Char.code f.[0]);
  check int "header byte 1" 0 (Char.code f.[1])

let test_framing_oversized_header () =
  let d = Util.Framing.decoder () in
  let bad = Bytes.create 4 in
  Bytes.set_int32_le bad 0 Int32.max_int;
  check bool "oversized header rejected" true
    (match Util.Framing.feed d (Bytes.to_string bad) ~pos:0 ~len:4 with
    | () -> false
    | exception Util.Framing.Corrupt _ -> true)

let test_framing_fd_roundtrip () =
  let rd, wr = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Util.Framing.write_frame wr "hello";
  Util.Framing.write_frame wr "";
  Util.Framing.write_frame wr (String.make 100_000 'x');
  check (option string) "first" (Some "hello") (Util.Framing.read_frame rd);
  check (option string) "empty" (Some "") (Util.Framing.read_frame rd);
  check bool "large" true
    (Util.Framing.read_frame rd = Some (String.make 100_000 'x'));
  Unix.close wr;
  check (option string) "clean EOF" None (Util.Framing.read_frame rd);
  Unix.close rd

let test_framing_eof_mid_frame () =
  let rd, wr = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a full header promising 10 bytes, then only 3, then EOF *)
  let frame = Util.Framing.encode "0123456789" in
  let torn = String.sub frame 0 (Util.Framing.header_bytes + 3) in
  let _ = Unix.write_substring wr torn 0 (String.length torn) in
  Unix.close wr;
  check bool "EOF mid-frame is Corrupt" true
    (match Util.Framing.read_frame rd with
    | _ -> false
    | exception Util.Framing.Corrupt _ -> true);
  Unix.close rd

(* Torn-read property: any chunking of any frame sequence decodes to
   exactly the original payloads, and any strict prefix decodes to a
   prefix of them. *)
let prop_framing_torn_chunks =
  QCheck.Test.make ~name:"decoder survives arbitrary chunk boundaries"
    ~count:200 Helpers.seed_arb (fun seed ->
      let rng = Util.Prng.create ~seed in
      let payloads =
        List.init
          (Util.Prng.int rng 8)
          (fun _ ->
            String.init
              (Util.Prng.int rng 200)
              (fun _ -> Char.chr (Util.Prng.int rng 256)))
      in
      let stream = String.concat "" (List.map Util.Framing.encode payloads) in
      let cut = Util.Prng.int rng (String.length stream + 1) in
      let decode_upto stop =
        let d = Util.Framing.decoder () in
        let got = ref [] in
        let pos = ref 0 in
        while !pos < stop do
          let len = min (1 + Util.Prng.int rng 17) (stop - !pos) in
          Util.Framing.feed d stream ~pos:!pos ~len;
          pos := !pos + len;
          let rec drain () =
            match Util.Framing.next d with
            | Some p ->
              got := p :: !got;
              drain ()
            | None -> ()
          in
          drain ()
        done;
        (List.rev !got, Util.Framing.pending d)
      in
      let all, pend_all = decode_upto (String.length stream) in
      let prefix, _ = decode_upto cut in
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
        | _ :: _, [] -> false
      in
      all = payloads && pend_all = 0 && is_prefix prefix payloads)

(* Truncation at every byte offset of a fixed small stream: the
   decoded payloads are exactly the frames that fit, and [pending] is
   nonzero iff the cut fell mid-frame. *)
let test_framing_truncation_every_offset () =
  let payloads = [ "a"; "bcd"; ""; "efghijkl" ] in
  let stream = String.concat "" (List.map Util.Framing.encode payloads) in
  check bool "fixture fits the 64-byte sweep" true (String.length stream <= 64);
  (* cumulative end offset of each frame *)
  let ends =
    List.rev
      (List.fold_left
         (fun acc p ->
           let prev = match acc with e :: _ -> e | [] -> 0 in
           (prev + Util.Framing.header_bytes + String.length p) :: acc)
         [] payloads)
  in
  for stop = 0 to String.length stream do
    let d = Util.Framing.decoder () in
    Util.Framing.feed d stream ~pos:0 ~len:stop;
    let rec drain acc =
      match Util.Framing.next d with
      | Some p -> drain (p :: acc)
      | None -> List.rev acc
    in
    let got = drain [] in
    let expected =
      List.filteri (fun i _ -> List.nth ends i <= stop) payloads
    in
    check (list string) (Printf.sprintf "payloads at offset %d" stop) expected
      got;
    let at_boundary = stop = 0 || List.mem stop ends in
    check bool
      (Printf.sprintf "pending at offset %d" stop)
      (not at_boundary)
      (Util.Framing.pending d > 0)
  done

(* Duplicated tails: a well-formed stream followed by a copy of its
   own suffix (cut anywhere, so usually mid-frame). The clean prefix
   must decode intact; the duplicated bytes may decode as garbage
   frames or raise [Corrupt] — anything but another exception or a
   corrupted prefix. *)
let prop_framing_duplicated_tail =
  QCheck.Test.make ~name:"decoder survives duplicated tails" ~count:200
    Helpers.seed_arb (fun seed ->
      let rng = Util.Prng.create ~seed in
      let payloads =
        List.init
          (1 + Util.Prng.int rng 6)
          (fun _ ->
            String.init
              (Util.Prng.int rng 64)
              (fun _ -> Char.chr (Util.Prng.int rng 256)))
      in
      let stream = String.concat "" (List.map Util.Framing.encode payloads) in
      let d = Util.Framing.decoder () in
      let got = ref [] in
      let rec drain () =
        match Util.Framing.next d with
        | Some p ->
          got := p :: !got;
          drain ()
        | None -> ()
      in
      let feed_chunked s =
        let pos = ref 0 in
        while !pos < String.length s do
          let len = min (1 + Util.Prng.int rng 13) (String.length s - !pos) in
          Util.Framing.feed d s ~pos:!pos ~len;
          pos := !pos + len;
          drain ()
        done
      in
      feed_chunked stream;
      let clean = List.rev !got in
      let off = Util.Prng.int rng (String.length stream + 1) in
      let tail = String.sub stream off (String.length stream - off) in
      let tail_ok =
        match feed_chunked tail with
        | () -> true
        | exception Util.Framing.Corrupt _ -> true
      in
      clean = payloads && tail_ok)

(* -- map_ranges ---------------------------------------------------------- *)

let test_map_ranges_basic () =
  check_fork_available ();
  let results =
    Util.Cluster.map_ranges ~workers:4 ~n:103 (fun lo hi -> (lo, hi, hi - lo))
  in
  check int "four ranks" 4 (Array.length results);
  let total = Array.fold_left (fun a (_, _, k) -> a + k) 0 results in
  check int "ranges cover [0,n)" 103 total;
  Array.iteri
    (fun b (lo, hi, _) ->
      let elo, ehi = Util.Cluster.block_bounds ~n:103 ~workers:4 b in
      check int "lo" elo lo;
      check int "hi" ehi hi)
    results

let test_map_ranges_worker_error () =
  check_fork_available ();
  check bool "worker exception surfaces as Worker_error" true
    (match
       Util.Cluster.map_ranges ~workers:3 ~n:30 (fun lo _ ->
           if lo >= 10 then failwith "boom" else lo)
     with
    | _ -> false
    | exception Util.Cluster.Worker_error { rank; message; _ } ->
      rank = 1 && message = "Failure(\"boom\")")

let test_map_ranges_kill_recovery () =
  check_fork_available ();
  Helpers.with_env Util.Cluster.kill_env_var "1" (fun () ->
      let r =
        Util.Cluster.map_ranges ~workers:3 ~n:30 (fun lo hi -> hi * 100 + lo)
      in
      check bool "killed rank recovered in-process" true
        (r = Array.init 3 (fun b ->
             let lo, hi = Util.Cluster.block_bounds ~n:30 ~workers:3 b in
             hi * 100 + lo)))

let test_map_ranges_env_default () =
  Helpers.with_env Util.Cluster.env_var "3" (fun () ->
      check int "env worker count" 3 (Util.Cluster.default_workers ()));
  check int "unset means 1" 1 (Util.Cluster.default_workers ())

(* -- disk cache ---------------------------------------------------------- *)

let tmp_path prefix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))

let test_diskcache_persistence () =
  let path = tmp_path "lcl-dc" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Util.Diskcache.open_ path in
      Util.Diskcache.add c "k1" "v1";
      Util.Diskcache.add c "k2" (String.make 5000 'y');
      Util.Diskcache.add c "k1" "overwrite-ignored";
      check (option string) "memory read" (Some "v1")
        (Util.Diskcache.find c "k1");
      Util.Diskcache.close c;
      let c2 = Util.Diskcache.open_ path in
      check (option string) "persisted" (Some "v1")
        (Util.Diskcache.find c2 "k1");
      check bool "large value persisted" true
        (Util.Diskcache.find c2 "k2" = Some (String.make 5000 'y'));
      check int "first writer wins" 2 (Util.Diskcache.length c2);
      Util.Diskcache.close c2)

let test_diskcache_torn_tail () =
  let path = tmp_path "lcl-dc-torn" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Util.Diskcache.open_ path in
      Util.Diskcache.add c "good" "value";
      Util.Diskcache.close c;
      (* simulate a crash mid-append: a header promising more bytes
         than follow *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc (String.sub (Util.Framing.encode "torn-key") 0 6);
      close_out oc;
      let c2 = Util.Diskcache.open_ path in
      check (option string) "good record survives" (Some "value")
        (Util.Diskcache.find c2 "good");
      check int "torn record ignored" 1 (Util.Diskcache.length c2);
      (* appending after the torn tail truncates it *)
      Util.Diskcache.add c2 "fresh" "data";
      Util.Diskcache.close c2;
      let c3 = Util.Diskcache.open_ path in
      check (option string) "fresh record readable" (Some "data")
        (Util.Diskcache.find c3 "fresh");
      check int "two records" 2 (Util.Diskcache.length c3);
      Util.Diskcache.close c3)

let test_diskcache_forked_writers () =
  check_fork_available ();
  let path = tmp_path "lcl-dc-fork" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Util.Diskcache.open_ path in
      (* two children race 50 locked appends each; the file lock keeps
         every record intact *)
      let spawn tag =
        match Unix.fork () with
        | 0 ->
          let mine = Util.Diskcache.open_ path in
          for i = 0 to 49 do
            Util.Diskcache.add mine
              (Printf.sprintf "%s-%d" tag i)
              (Printf.sprintf "val-%s-%d" tag i)
          done;
          Util.Diskcache.close mine;
          Unix._exit 0
        | pid -> pid
      in
      let pa = spawn "a" and pb = spawn "b" in
      let ok p =
        match Unix.waitpid [] p with
        | _, Unix.WEXITED 0 -> true
        | _ -> false
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
      in
      check bool "child a exited cleanly" true (ok pa);
      check bool "child b exited cleanly" true (ok pb);
      (* parent syncs on demand and sees every record *)
      check (option string) "a-0" (Some "val-a-0")
        (Util.Diskcache.find c "a-0");
      check (option string) "b-49" (Some "val-b-49")
        (Util.Diskcache.find c "b-49");
      check int "all 100 records" 100 (Util.Diskcache.length c);
      Util.Diskcache.close c)

(* -- obs absorb ---------------------------------------------------------- *)

let test_metrics_absorb () =
  let (), _, metrics =
    Helpers.with_trace (fun () ->
        let c = Obs.Metrics.counter "test.cluster.absorb" in
        Obs.Metrics.add c 2;
        Obs.Metrics.absorb [ ("test.cluster.absorb", Obs.Metrics.Counter_v 5) ];
        Obs.Metrics.absorb [ ("test.cluster.gauge", Obs.Metrics.Gauge_v 7) ])
  in
  Helpers.assert_counter metrics "test.cluster.absorb" 7;
  check bool "absorbed gauge registered" true
    (List.assoc_opt "test.cluster.gauge" metrics = Some (Obs.Metrics.Gauge_v 7))

let test_span_absorb () =
  let (), events, _ =
    Helpers.with_trace (fun () ->
        Obs.Span.with_ "local-span" (fun () -> ());
        Obs.Span.absorb
          [
            {
              Obs.Span.name = "foreign-span";
              domain = 0;
              seq = 0;
              depth = 0;
              t_start = 0.;
              t_stop = 1.;
            };
          ])
  in
  Helpers.assert_span_count events "local-span" 1;
  Helpers.assert_span_count events "foreign-span" 1;
  let dom name =
    (List.find (fun (e : Obs.Span.event) -> e.Obs.Span.name = name) events)
      .Obs.Span.domain
  in
  check bool "foreign spans renamed past local ranks" true
    (dom "foreign-span" > dom "local-span")

(* -- serve: engine + cache ----------------------------------------------- *)

let with_cache f =
  let path = tmp_path "lcl-serve-cache" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Util.Diskcache.open_ path in
      Fun.protect ~finally:(fun () -> Util.Diskcache.close c) (fun () -> f c))

let test_serve_cache_hit_no_invocation () =
  with_cache (fun cache ->
      let req = Serve.Protocol.Classify { problem = "3-coloring" } in
      let (r1, r2), _, metrics =
        Helpers.with_trace (fun () ->
            ( Serve.Engine.answer_cached ~cache req,
              Serve.Engine.answer_cached ~cache req ))
      in
      check bool "cold answer ok" true
        (match r1 with Serve.Protocol.Answer _ -> true | _ -> false);
      check bool "warm answer byte-identical" true (r1 = r2);
      (* the second identical request is a cache hit: zero additional
         engine invocations *)
      Helpers.assert_counter metrics "serve.requests" 2;
      Helpers.assert_counter metrics "serve.computed" 1;
      Helpers.assert_counter metrics "serve.cache.hits" 1;
      Helpers.assert_counter metrics "serve.cache.misses" 1)

let test_serve_batch_dedup () =
  with_cache (fun cache ->
      let c = Serve.Protocol.Classify { problem = "mis" } in
      let rs, _, metrics =
        Helpers.with_trace (fun () ->
            Serve.Engine.answer_batch ~cache
              [ (c, None); (Serve.Protocol.Ping, None); (c, None); (c, None) ])
      in
      (match rs with
      | [ (a, Serve.Engine.Miss); (p, Serve.Engine.Uncacheable);
          (b, Serve.Engine.Hit); (d, Serve.Engine.Hit) ] ->
        check bool "batch duplicates share one answer" true (a = b && b = d);
        check bool "ping answered" true (p = Serve.Protocol.Answer "pong")
      | _ -> fail "unexpected batch shape");
      (* three classify requests, one computation *)
      Helpers.assert_counter metrics "serve.computed" 2 (* classify + ping *))

let test_serve_fingerprint_canonical () =
  (* a zoo name and its pretty-printed source share one cache key;
     different problems do not *)
  let p = List.assoc "3-coloring" Serve.Zoo_table.all in
  let text = Lcl.Parse.to_string p in
  let key spec =
    Serve.Protocol.fingerprint (Serve.Protocol.Classify { problem = spec })
  in
  check bool "canonical key" true (key "3-coloring" = key text);
  check bool "distinct problems, distinct keys" true
    (key "3-coloring" <> key "mis");
  check bool "parse errors are uncacheable" true (key "not a problem!" = None)

let test_serve_error_not_cached () =
  with_cache (fun cache ->
      let bad = Serve.Protocol.Simulate { algo = "no-such"; n = 8; seed = 1 } in
      (match Serve.Engine.answer_cached ~cache bad with
      | Serve.Protocol.Failed { code = "F400"; _ } -> ()
      | _ -> fail "expected a typed F400 failure");
      check int "errors never persisted" 0 (Util.Diskcache.length cache))

(* -- serve: daemon end-to-end -------------------------------------------- *)

let test_serve_daemon_roundtrip () =
  check_fork_available ();
  let sock = tmp_path "lcl-serve-sock" in
  let cache = tmp_path "lcl-serve-dc" in
  let cleanup () =
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ sock; cache ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      let daemon =
        match Unix.fork () with
        | 0 ->
          (* the daemon child: serve until the Shutdown request *)
          (try
             ignore
               (Serve.Daemon.serve ~socket_path:sock ~cache_path:cache
                  ~poll_interval:0.02 ())
           with _ -> Unix._exit 1);
          Unix._exit 0
        | pid -> pid
      in
      let rec await_socket tries =
        if Sys.file_exists sock then ()
        else if tries = 0 then fail "daemon socket never appeared"
        else begin
          ignore (Unix.select [] [] [] 0.02);
          await_socket (tries - 1)
        end
      in
      await_socket 250;
      let classify = Serve.Protocol.Classify { problem = "2-coloring" } in
      (* one connection, both requests in flight before any answer:
         they land in one dispatch cycle and compute once *)
      (match Serve.Daemon.request_batch ~socket_path:sock [ classify; classify ] with
      | [ Serve.Protocol.Answer a; Serve.Protocol.Answer b ] ->
        check bool "batched duplicates agree" true (a = b);
        check bool "verdict present" true
          (String.length a > 22
          && String.sub a 0 22 = "{\"problem\":\"2-coloring")
      | rs ->
        fail
          (Printf.sprintf "batch failed: %s"
             (String.concat "; "
                (List.map Serve.Protocol.response_to_string rs))))
      [@ocamlformat "disable"];
      (* a later repeat is answered from the persistent cache *)
      (match Serve.Daemon.request ~socket_path:sock classify with
      | Serve.Protocol.Answer _ -> ()
      | r -> fail (Serve.Protocol.response_to_string r));
      (match Serve.Daemon.request ~socket_path:sock Serve.Protocol.Stats with
      | Serve.Protocol.Answer text ->
        check bool "stats reports the cache hit" true
          (let has needle =
             let rec go i =
               i + String.length needle <= String.length text
               && (String.sub text i (String.length needle) = needle || go (i + 1))
             in
             go 0
           in
           has "\"cache_hits\":2" && has "\"cache_misses\":1")
      | r -> fail (Serve.Protocol.response_to_string r));
      (match Serve.Daemon.request ~socket_path:sock Serve.Protocol.Shutdown with
      | Serve.Protocol.Answer _ -> ()
      | r -> fail (Serve.Protocol.response_to_string r));
      (match Unix.waitpid [] daemon with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> fail "daemon did not exit cleanly"
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()))

(* -- backoff -------------------------------------------------------------- *)

let test_backoff_deterministic () =
  let mk seed =
    Util.Backoff.create ~base_ms:10 ~max_ms:200 ~jitter:0.5 ~max_retries:6
      ~seed ()
  in
  let delays pol = List.init 6 (fun a -> Util.Backoff.delay_ms pol ~attempt:a) in
  check bool "same seed, same delays" true (delays (mk 42) = delays (mk 42));
  check bool "different seed, different jitter" true
    (delays (mk 42) <> delays (mk 43));
  List.iter
    (function
      | Some ms ->
        (* raw halves at most under jitter 0.5, caps at max_ms *)
        check bool "delay within bounds" true (ms >= 5 && ms <= 200)
      | None -> fail "budget unexpectedly exhausted")
    (delays (mk 42));
  check bool "budget exhausted" true
    (Util.Backoff.delay_ms (mk 42) ~attempt:6 = None)

let test_backoff_retry () =
  let p = Util.Backoff.create ~base_ms:1 ~max_ms:2 ~max_retries:5 ~seed:7 () in
  let calls = ref 0 in
  let v =
    Util.Backoff.retry ~sleep:(fun _ -> ()) p (fun () ->
        incr calls;
        if !calls < 3 then failwith "flaky" else 99)
  in
  check int "succeeded on third attempt" 99 v;
  check int "three calls" 3 !calls;
  let calls = ref 0 in
  check bool "exhaustion is typed" true
    (match
       Util.Backoff.retry ~sleep:(fun _ -> ()) p (fun () ->
           incr calls;
           failwith "always")
     with
    | _ -> false
    | exception Util.Backoff.Exhausted { attempts; _ } ->
      attempts = 6 && !calls = 6)

(* -- cluster: stalled shard ------------------------------------------------ *)

let test_map_ranges_stall_recovery () =
  check_fork_available ();
  (* rank 1 sleeps far past the drain timeout: the parent must reap it
     and recompute the range in-process, bit-identically *)
  Helpers.with_env Util.Cluster.stall_env_var "1" (fun () ->
      let recovered = ref [] in
      let before = Util.Cluster.recoveries () in
      let r =
        Util.Cluster.map_ranges ~workers:3 ~timeout_s:0.3
          ~on_recover:(fun rank -> recovered := rank :: !recovered)
          ~n:30
          (fun lo hi -> hi * 100 + lo)
      in
      check bool "stalled rank reaped and recomputed bit-identically" true
        (r
        = Array.init 3 (fun b ->
              let lo, hi = Util.Cluster.block_bounds ~n:30 ~workers:3 b in
              hi * 100 + lo));
      check (list int) "exactly rank 1 recovered" [ 1 ] !recovered;
      check bool "recovery counted" true (Util.Cluster.recoveries () > before))

(* -- diskcache: bounded lock + quarantine ---------------------------------- *)

let test_diskcache_busy_contention () =
  check_fork_available ();
  let path = tmp_path "lcl-dc-busy" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Util.Diskcache.open_ ~lock_timeout_ms:150 path in
      (* a second process grabs the file lock and sits on it *)
      let locker =
        match Unix.fork () with
        | 0 ->
          (try
             let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
             ignore (Unix.lseek fd 0 Unix.SEEK_SET);
             Unix.lockf fd Unix.F_LOCK 0;
             ignore (Unix.select [] [] [] 1.0)
           with _ -> ());
          Unix._exit 0
        | pid -> pid
      in
      ignore (Unix.select [] [] [] 0.25);
      check bool "bounded wait raises Busy" true
        (match Util.Diskcache.add c "k" "v" with
        | () -> false
        | exception Util.Diskcache.Busy _ -> true);
      (try ignore (Unix.waitpid [] locker)
       with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
      (* lock released: the same operation now goes through *)
      Util.Diskcache.add c "k" "v";
      check (option string) "recovered after Busy" (Some "v")
        (Util.Diskcache.find c "k");
      Util.Diskcache.close c)

let test_diskcache_quarantine () =
  let path = tmp_path "lcl-dc-quar" in
  let dests = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        (path :: !dests))
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "garbage, not a cache file\n");
      let c, quarantined = Util.Diskcache.open_resilient path in
      (match quarantined with
      | Some dest ->
        dests := [ dest ];
        check bool "bad bytes preserved for postmortems" true
          (Sys.file_exists dest)
      | None -> fail "expected the corrupt file to be quarantined");
      Util.Diskcache.add c "k" "v";
      check (option string) "fresh cache usable" (Some "v")
        (Util.Diskcache.find c "k");
      Util.Diskcache.close c;
      let c2, q2 = Util.Diskcache.open_resilient path in
      check bool "no quarantine on clean reopen" true (q2 = None);
      check (option string) "fresh cache persisted" (Some "v")
        (Util.Diskcache.find c2 "k");
      Util.Diskcache.close c2)

(* -- service plans --------------------------------------------------------- *)

let test_service_plan_roundtrip () =
  let spec =
    Fault.Service.spec ~kill:0.2 ~stall:0.1 ~torn:0.1 ~drop:0.1
      ~cache_corrupt:0.05 ~disk_full:0.05 ~ranks:4 ()
  in
  let p1 = Fault.Service.generate ~seed:11 ~requests:50 spec in
  let p2 = Fault.Service.generate ~seed:11 ~requests:50 spec in
  check bool "generation is deterministic" true (p1 = p2);
  check bool "some events drawn" true (not (Fault.Service.is_empty p1));
  (match Fault.Service.of_string (Fault.Service.to_string p1) with
  | Ok p -> check bool "JSON round-trip" true (p = p1)
  | Error e -> fail (Fault.Error.to_string e));
  (* torn wins over drop on one ordinal: the client can only vanish
     one way *)
  let conflicted =
    Fault.Service.make
      [| (3, Fault.Service.Torn_frame); (3, Fault.Service.Drop_connection) |]
  in
  check bool "torn/drop conflict resolved" true
    (Fault.Service.at conflicted 3 = [ Fault.Service.Torn_frame ]);
  check bool "empty ordinal" true (Fault.Service.at conflicted 0 = []);
  check bool "counts listed per class" true
    (List.length (Fault.Service.counts p1) = 6)

(* -- serve: robustness ----------------------------------------------------- *)

let test_serve_deadline_engine () =
  with_cache (fun cache ->
      (* a zero budget is already expired when its turn comes *)
      (match
         Serve.Engine.answer_batch ~cache [ (Serve.Protocol.Ping, Some 0) ]
       with
      | [ (Serve.Protocol.Deadline_exceeded { budget_ms = 0 }, _) ] -> ()
      | _ -> fail "expected Deadline_exceeded");
      (* an ample budget answers normally *)
      match
        Serve.Engine.answer_batch ~cache [ (Serve.Protocol.Ping, Some 60_000) ]
      with
      | [ (Serve.Protocol.Answer "pong", _) ] -> ()
      | _ -> fail "expected a pong within budget")

let test_serve_degraded_engine () =
  check_fork_available ();
  let req = Serve.Protocol.Simulate { algo = "cv-coloring"; n = 60; seed = 3 } in
  let clean =
    match Serve.Engine.answer ~workers:3 req with
    | Serve.Protocol.Answer text -> text
    | r -> fail (Serve.Protocol.response_to_string r)
  in
  Helpers.with_env Util.Cluster.kill_env_var "1" (fun () ->
      match Serve.Engine.answer ~workers:3 req with
      | Serve.Protocol.Degraded { text; reason } ->
        check string "degraded text is byte-identical" clean text;
        check bool "reason mentions recovery" true
          (String.length reason > 0)
      | r -> fail (Serve.Protocol.response_to_string r))

let with_daemon ?workers ?config f =
  check_fork_available ();
  let sock = tmp_path "lcl-dmn-sock" in
  let cachef = tmp_path "lcl-dmn-dc" in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ sock; cachef ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      let daemon =
        match Unix.fork () with
        | 0 ->
          (try
             ignore
               (Serve.Daemon.serve ~socket_path:sock ~cache_path:cachef
                  ?workers ?config ~poll_interval:0.02 ())
           with _ -> Unix._exit 1);
          Unix._exit 0
        | pid -> pid
      in
      let rec await tries =
        if Sys.file_exists sock then ()
        else if tries = 0 then fail "daemon socket never appeared"
        else begin
          ignore (Unix.select [] [] [] 0.02);
          await (tries - 1)
        end
      in
      await 250;
      Fun.protect
        ~finally:(fun () ->
          ignore
            (Serve.Daemon.request ~recv_timeout_s:10. ~socket_path:sock
               Serve.Protocol.Shutdown);
          try ignore (Unix.waitpid [] daemon)
          with Unix.Unix_error (Unix.ECHILD, _, _) -> ())
        (fun () -> f sock))

let contains text needle =
  let rec go i =
    i + String.length needle <= String.length text
    && (String.sub text i (String.length needle) = needle || go (i + 1))
  in
  go 0

(* Regression: a client killed mid-frame, or one sending a frame too
   short to decode, must cost only its own connection — the select
   loop keeps serving everyone else. *)
let test_daemon_mid_frame_disconnect () =
  with_daemon (fun sock ->
      let enc =
        Serve.Protocol.encode_request (Serve.Protocol.Classify
          { problem = "3-coloring" })
      in
      (* half a header, then vanish; then a full frame, then vanish
         before reading the answer; then a zero-length frame *)
      List.iter
        (fun bytes ->
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX sock);
          ignore (Unix.write_substring fd bytes 0 (String.length bytes));
          Unix.close fd;
          ignore (Unix.select [] [] [] 0.05))
        [ String.sub enc 0 2; enc; "\000\000\000\000" ];
      (* the daemon is still alive and still answers *)
      match
        Serve.Daemon.request ~recv_timeout_s:10. ~socket_path:sock
          Serve.Protocol.Ping
      with
      | Serve.Protocol.Answer "pong" -> ()
      | r -> fail (Serve.Protocol.response_to_string r))

let test_daemon_deadline_and_health () =
  with_daemon (fun sock ->
      (match
         Serve.Daemon.request ~budget_ms:0 ~recv_timeout_s:10.
           ~socket_path:sock Serve.Protocol.Ping
       with
      | Serve.Protocol.Deadline_exceeded { budget_ms = 0 } -> ()
      | r -> fail (Serve.Protocol.response_to_string r));
      match
        Serve.Daemon.request ~recv_timeout_s:10. ~socket_path:sock
          Serve.Protocol.Health
      with
      | Serve.Protocol.Answer t ->
        check bool "health JSON" true (contains t "\"serve\":\"health\"");
        check bool "health reports workers" true (contains t "\"workers\":")
      | r -> fail (Serve.Protocol.response_to_string r))

let test_daemon_admission_shed () =
  let config =
    { Serve.Daemon.default_config with Serve.Daemon.max_pending = 2 }
  in
  with_daemon ~config (fun sock ->
      let rs =
        Serve.Daemon.request_batch ~recv_timeout_s:10. ~socket_path:sock
          (List.init 6 (fun _ -> Serve.Protocol.Ping))
      in
      let answered =
        List.length
          (List.filter
             (function Serve.Protocol.Answer "pong" -> true | _ -> false)
             rs)
      in
      let shed =
        List.length
          (List.filter
             (function Serve.Protocol.Overloaded _ -> true | _ -> false)
             rs)
      in
      check int "every request answered, typed" 6 (answered + shed);
      check bool "admitted up to the cap per cycle" true (answered >= 2);
      check bool "the overflow shed" true (shed >= 2))

let test_daemon_chaos_degraded () =
  (* daemon-side chaos: ordinal 0 loses worker rank 1; the answer
     degrades but its text matches the healthy warm replay *)
  let config =
    {
      Serve.Daemon.default_config with
      Serve.Daemon.chaos =
        Fault.Service.make [| (0, Fault.Service.Kill_worker 1) |];
    }
  in
  with_daemon ~workers:3 ~config (fun sock ->
      let req =
        Serve.Protocol.Simulate { algo = "cv-coloring"; n = 60; seed = 5 }
      in
      let cold =
        match
          Serve.Daemon.request ~recv_timeout_s:10. ~socket_path:sock req
        with
        | Serve.Protocol.Degraded { text; _ } -> text
        | r -> fail (Serve.Protocol.response_to_string r)
      in
      match Serve.Daemon.request ~recv_timeout_s:10. ~socket_path:sock req with
      | Serve.Protocol.Answer warm ->
        check string "degraded text cached and byte-identical" cold warm
      | r -> fail (Serve.Protocol.response_to_string r))

let test_client_retry_give_up () =
  let retry =
    Util.Backoff.create ~base_ms:1 ~max_ms:2 ~max_retries:2 ~seed:3 ()
  in
  match
    Serve.Daemon.request ~retry
      ~socket_path:(tmp_path "lcl-no-such-socket") Serve.Protocol.Ping
  with
  | Serve.Protocol.Failed { code = "F401"; _ } -> ()
  | r -> fail (Serve.Protocol.response_to_string r)

(* -- runner and probe under the worker matrix ----------------------------- *)

let torus_setup () =
  let t = Grid.Problems.mark_tag_inputs (Grid.Torus.make [| 12; 12 |]) in
  let g = Grid.Torus.graph t in
  let pids = Grid.Torus.prod_ids t in
  (g, pids)

let test_runner_matrix () =
  check_fork_available ();
  let g, pids = torus_setup () in
  let problem = Grid.Problems.torus_coloring ~d:2 in
  let algo = Grid.Algorithms.torus_coloring ~d:2 ~base:pids.Grid.Torus.base in
  let run ~workers ~domains =
    Local.Runner.run ~seed:5 ~ids:(`Fixed pids.Grid.Torus.packed) ~workers
      ~domains ~problem algo g
  in
  let base = run ~workers:1 ~domains:1 in
  check int "baseline verifies" 0 (List.length base.Local.Runner.violations);
  (* forked cells first: domains spawn only inside workers *)
  List.iter
    (fun (workers, domains) ->
      let o = run ~workers ~domains in
      check bool
        (Printf.sprintf "labeling identical at workers=%d domains=%d" workers
           domains)
        true
        (o.Local.Runner.labeling = base.Local.Runner.labeling
        && o.Local.Runner.violations = base.Local.Runner.violations))
    [ (2, 1); (4, 1); (2, 4); (4, 4) ];
  check_fork_available ()

let test_runner_matrix_memo_warm () =
  check_fork_available ();
  let g, pids = torus_setup () in
  let problem = Grid.Problems.dimension_echo ~d:2 in
  let algo = Grid.Algorithms.dimension_echo in
  let run ~workers cache =
    Local.Runner.run ~seed:5 ~ids:(`Fixed pids.Grid.Torus.packed) ~workers
      ~domains:1 ~cache ~problem algo g
  in
  (* workers ship memo insertions back: a second sharded run over the
     same shared cache answers every node from it *)
  let cache = Local.Runner.memo_cache () in
  let first = run ~workers:4 cache in
  let second = run ~workers:4 cache in
  check bool "labelings agree" true
    (first.Local.Runner.labeling = second.Local.Runner.labeling);
  check int "no new views on the warm run" 0
    second.Local.Runner.stats.Local.Runner.distinct_views;
  check int "warm run hits on every node" (Graph.n g)
    second.Local.Runner.stats.Local.Runner.cache_hits

let test_runner_cluster_typed_exceptions () =
  check_fork_available ();
  let bad =
    Local.Algorithm.constant ~name:"bad-arity" ~radius:0 (fun _ ->
        [| 0; 0; 0; 0 |])
  in
  let g = Graph.Builder.path 20 in
  check bool "arity error crosses the process boundary typed" true
    (match
       Local.Runner.run ~workers:4 ~problem:(Lcl.Zoo.trivial ~delta:2) bad g
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_probe_cluster_typed_exceptions () =
  check_fork_available ();
  let hungry : Volume.Probe.t =
    {
      Volume.Probe.name = "hungry";
      budget = (fun ~n:_ -> 1);
      decide =
        (fun ~n:_ tuples -> Volume.Probe.Probe (Array.length tuples - 1, 0));
    }
  in
  let g = Graph.Builder.cycle 24 in
  check bool "budget overrun crosses the process boundary typed" true
    (match
       Volume.Probe.run ~workers:4 ~problem:(Lcl.Zoo.trivial ~delta:2) hungry g
     with
    | exception Volume.Probe.Budget_exceeded _ -> true
    | _ -> false)

let test_probe_matrix () =
  check_fork_available ();
  let g =
    Lcl.Zoo_oriented.mark_orientation_inputs (Graph.Builder.oriented_cycle 60)
  in
  let problem = Lcl.Zoo_oriented.coloring ~k:3 in
  let run workers =
    Volume.Probe.run ~seed:9 ~workers ~problem Volume.Algorithms.cv_coloring g
  in
  let base = run 1 in
  List.iter
    (fun w ->
      let o = run w in
      check bool (Printf.sprintf "probe labeling identical at workers=%d" w)
        true
        (o.Volume.Probe.labeling = base.Volume.Probe.labeling
        && o.Volume.Probe.total_probes = base.Volume.Probe.total_probes))
    [ 2; 4 ]

let test_resilient_matrix () =
  check_fork_available ();
  let g = Graph.Builder.oriented_cycle 90 in
  let problem = Lcl.Zoo.coloring ~k:3 ~delta:2 in
  let spec = Fault.Plan.spec ~crash:0.1 ~sever:0.05 () in
  let plan = Fault.Plan.generate ~label:"matrix" ~seed:3 ~spec g in
  let run workers =
    match
      Local.Runner.run_resilient ~seed:5 ~workers ~plan ~retries:1 ~problem
        Local.Cole_vishkin.three_coloring g
    with
    | Ok o -> o
    | Error e -> fail (Fault.Error.to_string e)
  in
  let base = run 1 in
  List.iter
    (fun w ->
      let o = run w in
      check bool (Printf.sprintf "statuses identical at workers=%d" w) true
        (o.Local.Runner.report.Local.Runner.statuses
        = base.Local.Runner.report.Local.Runner.statuses);
      check bool (Printf.sprintf "partial labeling identical at workers=%d" w)
        true
        (o.Local.Runner.partial = base.Local.Runner.partial))
    [ 2; 4 ];
  (* chaos: kill rank 1 mid-run; the parent recomputes that shard and
     the merged statuses do not change *)
  Helpers.with_env Util.Cluster.kill_env_var "1" (fun () ->
      let o = run 4 in
      check bool "statuses survive a killed worker" true
        (o.Local.Runner.report.Local.Runner.statuses
        = base.Local.Runner.report.Local.Runner.statuses))

(* LAST: the in-parent multi-domain cell. Spawning a domain here
   poisons [fork] for the rest of the process, which is exactly what
   the final assertions pin down: [can_fork] flips false and sharded
   runs transparently degrade to the in-process fallback with the
   same labeling. *)
let test_runner_matrix_in_parent_domains_then_fallback () =
  check_fork_available ();
  let g, pids = torus_setup () in
  let problem = Grid.Problems.torus_coloring ~d:2 in
  let algo = Grid.Algorithms.torus_coloring ~d:2 ~base:pids.Grid.Torus.base in
  let run ~workers ~domains =
    Local.Runner.run ~seed:5 ~ids:(`Fixed pids.Grid.Torus.packed) ~workers
      ~domains ~problem algo g
  in
  let base = run ~workers:1 ~domains:1 in
  let in_parent = run ~workers:1 ~domains:4 in
  check bool "workers=1 domains=4 labeling identical" true
    (in_parent.Local.Runner.labeling = base.Local.Runner.labeling);
  (* the runtime now refuses fork in this process *)
  check bool "domains poison forking" false (Util.Cluster.can_fork ());
  let fallback = run ~workers:4 ~domains:1 in
  check bool "no-fork fallback still bit-identical" true
    (fallback.Local.Runner.labeling = base.Local.Runner.labeling)

let suites =
  [
    ( "cluster.framing",
      [
        test_case "encode header" `Quick test_framing_encode_header;
        test_case "oversized header" `Quick test_framing_oversized_header;
        test_case "truncation at every offset" `Quick
          test_framing_truncation_every_offset;
        test_case "fd roundtrip" `Quick test_framing_fd_roundtrip;
        test_case "EOF mid-frame" `Quick test_framing_eof_mid_frame;
      ] );
    Helpers.qsuite "cluster.framing-prop"
      [ prop_framing_torn_chunks; prop_framing_duplicated_tail ];
    ( "cluster.map",
      [
        test_case "rank-ordered ranges" `Quick test_map_ranges_basic;
        test_case "worker error" `Quick test_map_ranges_worker_error;
        test_case "kill recovery" `Quick test_map_ranges_kill_recovery;
        test_case "stall recovery" `Quick test_map_ranges_stall_recovery;
        test_case "env default" `Quick test_map_ranges_env_default;
      ] );
    ( "cluster.backoff",
      [
        test_case "deterministic delays" `Quick test_backoff_deterministic;
        test_case "retry and exhaustion" `Quick test_backoff_retry;
      ] );
    ( "cluster.diskcache",
      [
        test_case "persistence" `Quick test_diskcache_persistence;
        test_case "torn tail" `Quick test_diskcache_torn_tail;
        test_case "forked writers" `Quick test_diskcache_forked_writers;
        test_case "bounded lock wait" `Quick test_diskcache_busy_contention;
        test_case "quarantine" `Quick test_diskcache_quarantine;
      ] );
    ( "cluster.service-plan",
      [ test_case "generate + roundtrip" `Quick test_service_plan_roundtrip ] );
    ( "cluster.obs",
      [
        test_case "metrics absorb" `Quick test_metrics_absorb;
        test_case "span absorb" `Quick test_span_absorb;
      ] );
    ( "cluster.serve",
      [
        test_case "cache hit, zero invocations" `Quick
          test_serve_cache_hit_no_invocation;
        test_case "batch dedup" `Quick test_serve_batch_dedup;
        test_case "canonical fingerprint" `Quick
          test_serve_fingerprint_canonical;
        test_case "errors not cached" `Quick test_serve_error_not_cached;
        test_case "daemon roundtrip" `Quick test_serve_daemon_roundtrip;
        test_case "deadline in engine" `Quick test_serve_deadline_engine;
        test_case "degraded engine answer" `Quick test_serve_degraded_engine;
        test_case "mid-frame disconnect" `Quick
          test_daemon_mid_frame_disconnect;
        test_case "daemon deadline + health" `Quick
          test_daemon_deadline_and_health;
        test_case "admission shed" `Quick test_daemon_admission_shed;
        test_case "chaos-degraded then warm" `Quick test_daemon_chaos_degraded;
        test_case "client retry give-up" `Quick test_client_retry_give_up;
      ] );
    ( "cluster.runner",
      [
        test_case "worker matrix" `Quick test_runner_matrix;
        test_case "memo warm across processes" `Quick
          test_runner_matrix_memo_warm;
        test_case "typed runner exceptions" `Quick
          test_runner_cluster_typed_exceptions;
        test_case "typed probe exceptions" `Quick
          test_probe_cluster_typed_exceptions;
        test_case "probe matrix" `Quick test_probe_matrix;
        test_case "resilient matrix + chaos" `Quick test_resilient_matrix;
        test_case "in-parent domains, then fallback" `Quick
          test_runner_matrix_in_parent_domains_then_fallback;
      ] );
  ]
