(* The differential fuzz harness, bounded for the in-tree suite: the
   generator's determinism, the oracle matrix on clean and
   deliberately-broken cases, the shrinker, the repro round trip, the
   200-problem classify corpus, and the serve-daemon differential.

   Like Test_cluster, this module forks (worker legs, the domains4
   subprocess, a serve daemon) and therefore runs before any suite
   that spawns in-process domains — see test_main.ml. *)

open Alcotest

(* -- gen ------------------------------------------------------------------ *)

let test_gen_case_deterministic () =
  let a = Fuzz.Gen.case ~seed:7 ~index:3 in
  let b = Fuzz.Gen.case ~seed:7 ~index:3 in
  check string "same source" a.Fuzz.Gen.source b.Fuzz.Gen.source;
  check string "same spec"
    (Fuzz.Gen.spec_to_string a.Fuzz.Gen.spec)
    (Fuzz.Gen.spec_to_string b.Fuzz.Gen.spec);
  let c = Fuzz.Gen.case ~seed:8 ~index:3 in
  check bool "different seed, different case" false
    (a.Fuzz.Gen.source = c.Fuzz.Gen.source
    && Fuzz.Gen.spec_to_string a.Fuzz.Gen.spec
       = Fuzz.Gen.spec_to_string c.Fuzz.Gen.spec)

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"graph spec string round-trips" ~count:200
    Helpers.seed_arb (fun seed ->
      let rng = Util.Prng.create ~seed in
      let delta = 2 + Util.Prng.int rng 2 in
      let spec = Fuzz.Gen.random_spec rng ~delta ~max_n:24 in
      match Fuzz.Gen.spec_of_string (Fuzz.Gen.spec_to_string spec) with
      | Ok spec' -> Fuzz.Gen.spec_to_string spec' = Fuzz.Gen.spec_to_string spec
      | Error _ -> false)

let prop_case_degree_compatible =
  QCheck.Test.make ~name:"generated graph degrees fit the problem delta"
    ~count:100 Helpers.seed_arb (fun seed ->
      let case = Fuzz.Gen.case ~seed ~index:0 in
      let g = Fuzz.Gen.spec_to_graph case.Fuzz.Gen.spec in
      let delta = Lcl.Problem.delta case.Fuzz.Gen.problem in
      let ok = ref (Graph.n g >= 2) in
      for v = 0 to Graph.n g - 1 do
        if Graph.degree g v > delta then ok := false
      done;
      !ok)

let test_gen_screening_bias () =
  (* the prune screen should leave the vast majority of kept problems
     with a nonempty normal form; the bound is loose on purpose — the
     draw is random — but far above what unscreened drawing gives *)
  let solvable = ref 0 in
  for seed = 0 to 49 do
    let rng = Util.Prng.create ~seed in
    let p = Fuzz.Gen.random_problem rng ~k:2 ~delta:2 in
    if Lcl.Alphabet.size (Lcl.Problem.sigma_out (Lcl.Problem.prune p)) > 0 then
      incr solvable
  done;
  check bool
    (Printf.sprintf "%d/50 screened problems survive pruning" !solvable)
    true (!solvable >= 45)

let test_spec_halve_floors () =
  check bool "path 2 is minimal" true (Fuzz.Gen.spec_halve (Fuzz.Gen.Path 2) = None);
  (match Fuzz.Gen.spec_halve (Fuzz.Gen.Cycle 12) with
  | Some (Fuzz.Gen.Cycle 6) -> ()
  | _ -> fail "cycle 12 should halve to cycle 6");
  (* halving must never produce a spec the builder rejects *)
  let rec drive spec fuel =
    if fuel = 0 then fail "halving never reached a floor"
    else
      match Fuzz.Gen.spec_halve spec with
      | None -> ()
      | Some s ->
        ignore (Fuzz.Gen.spec_to_graph s);
        drive s (fuel - 1)
  in
  List.iter
    (fun s -> drive s 16)
    [
      Fuzz.Gen.Path 24; Fuzz.Gen.Torus 24;
      Fuzz.Gen.Tree { n = 24; delta = 3; gseed = 11 };
      Fuzz.Gen.Complete_tree { arity = 2; n = 24 };
      Fuzz.Gen.Caterpillar { spine = 12; legs = 1 };
      Fuzz.Gen.Regular { degree = 3; n = 24; gseed = 5 };
    ]

(* -- oracle --------------------------------------------------------------- *)

let test_oracle_clean_matrix () =
  for index = 0 to 11 do
    let case = Fuzz.Gen.case ~seed:0xBEEF ~index in
    let r =
      Fuzz.Oracle.run_case ~seed:(0xBEEF + index) ~case_index:index
        case.Fuzz.Gen.problem case.Fuzz.Gen.spec
    in
    check (list string)
      (Printf.sprintf "case %d configs" index)
      Fuzz.Oracle.configs r.Fuzz.Oracle.configs_run;
    check int
      (Printf.sprintf "case %d divergences" index)
      0
      (List.length r.Fuzz.Oracle.divergences)
  done

let test_oracle_report_byte_stable () =
  let case = Fuzz.Gen.case ~seed:0xBEEF ~index:4 in
  let line () =
    Fuzz.Oracle.result_to_json
      (Fuzz.Oracle.run_case ~seed:77 ~case_index:4 case.Fuzz.Gen.problem
         case.Fuzz.Gen.spec)
  in
  check string "identical report lines" (line ()) (line ())

(* A divergence detail is free text — the resilient leg builds it from
   [Fault.Error.to_string] — so the report line must escape it. *)
let test_oracle_report_escapes_detail () =
  let detail = {|node 3: F103 "algorithm raised" at C:\tmp\x|} in
  let r =
    {
      Fuzz.Oracle.case_index = 0; graph = "path:4"; n = 4; problem_delta = 2;
      source_digest = "s"; label_digest = "l"; violations = 0; radius = 1;
      classify_digest = "c"; configs_run = [ "seq"; "resilient" ];
      divergences = [ { config_a = "seq"; config_b = "resilient"; detail } ];
    }
  in
  match Json.of_string (Fuzz.Oracle.result_to_json r) with
  | exception Json.Parse_error m -> fail ("report line is not JSON: " ^ m)
  | line -> (
    match Json.member "divergences" line with
    | Some (Json.List [ d ]) ->
      check (option string) "detail read back" (Some detail)
        (Option.bind (Json.member "detail" d) Json.to_str)
    | _ -> fail "the report line lost its divergence")

let test_oracle_injected_break () =
  let case = Fuzz.Gen.case ~seed:0xBEEF ~index:0 in
  let r =
    Fuzz.Oracle.run_case ~seed:0xBEEF ~break_config:"workers3" ~case_index:0
      case.Fuzz.Gen.problem case.Fuzz.Gen.spec
  in
  match
    List.find_opt
      (fun d -> d.Fuzz.Oracle.config_b = "workers3")
      r.Fuzz.Oracle.divergences
  with
  | Some d -> check string "reference side" "seq" d.Fuzz.Oracle.config_a
  | None -> fail "injected break on workers3 produced no divergence"

let test_oracle_only_filter () =
  let case = Fuzz.Gen.case ~seed:0xBEEF ~index:1 in
  let r =
    Fuzz.Oracle.run_case ~seed:1 ~only:[ "memo" ] ~case_index:1
      case.Fuzz.Gen.problem case.Fuzz.Gen.spec
  in
  check (list string) "only seq + memo" [ "seq"; "memo" ]
    r.Fuzz.Oracle.configs_run

let test_in_subprocess () =
  check int "value crosses the fork" 42 (Fuzz.Oracle.in_subprocess (fun () -> 42));
  (match Fuzz.Oracle.in_subprocess (fun () -> String.make 3 'x') with
  | "xxx" -> ()
  | other -> failf "expected xxx, got %s" other);
  match Fuzz.Oracle.in_subprocess (fun () -> failwith "boom") with
  | exception Failure m ->
    let contains s sub =
      let n = String.length sub in
      let rec at i =
        i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
      in
      at 0
    in
    check bool "child exception surfaces" true (contains m "boom")
  | _ -> fail "child exception did not surface"

(* -- shrink --------------------------------------------------------------- *)

let test_shrink_minimizes_injected () =
  let case = Fuzz.Gen.case ~seed:0xBEEF ~index:2 in
  let break_config = "workers3" in
  check bool "case diverges before shrinking" true
    (Fuzz.Oracle.diverges ~seed:2 ~break_config ~config_a:"seq"
       ~config_b:"workers3" case.Fuzz.Gen.problem case.Fuzz.Gen.spec);
  let m =
    Fuzz.Shrink.minimize ~seed:2 ~break_config ~config_a:"seq"
      ~config_b:"workers3" case.Fuzz.Gen.problem case.Fuzz.Gen.spec
  in
  check bool "minimized case still diverges" true
    (Fuzz.Oracle.diverges ~seed:2 ~break_config ~config_a:"seq"
       ~config_b:"workers3" m.Fuzz.Shrink.problem m.Fuzz.Shrink.spec);
  check bool "graph did not grow" true
    (Fuzz.Gen.spec_n m.Fuzz.Shrink.spec <= Fuzz.Gen.spec_n case.Fuzz.Gen.spec);
  check bool "alphabet did not grow" true
    (Lcl.Alphabet.size (Lcl.Problem.sigma_out m.Fuzz.Shrink.problem)
    <= Lcl.Alphabet.size (Lcl.Problem.sigma_out case.Fuzz.Gen.problem));
  (* the perturbation needs two labels to be visible, so the shrinker
     can never go below that *)
  check bool "at least two labels survive" true
    (Lcl.Alphabet.size (Lcl.Problem.sigma_out m.Fuzz.Shrink.problem) >= 2)

let test_shrink_noop_on_agreement () =
  let case = Fuzz.Gen.case ~seed:0xBEEF ~index:3 in
  let m =
    Fuzz.Shrink.minimize ~seed:3 ~config_a:"seq" ~config_b:"memo"
      case.Fuzz.Gen.problem case.Fuzz.Gen.spec
  in
  check int "no moves accepted on a clean case" 0 m.Fuzz.Shrink.steps

(* -- repro ---------------------------------------------------------------- *)

let sample_repro ?break_config () =
  let case = Fuzz.Gen.case ~seed:0xBEEF ~index:2 in
  {
    Fuzz.Repro.seed = 2;
    case_index = 2;
    spec = case.Fuzz.Gen.spec;
    config_a = "seq";
    config_b = "workers3";
    break_config;
    source = case.Fuzz.Gen.source;
  }

let test_repro_roundtrip () =
  let r = sample_repro ~break_config:"workers3" () in
  match Fuzz.Repro.of_string (Fuzz.Repro.to_string r) with
  | Error m -> fail m
  | Ok r' ->
    check int "seed" r.Fuzz.Repro.seed r'.Fuzz.Repro.seed;
    check int "case" r.Fuzz.Repro.case_index r'.Fuzz.Repro.case_index;
    check string "spec"
      (Fuzz.Gen.spec_to_string r.Fuzz.Repro.spec)
      (Fuzz.Gen.spec_to_string r'.Fuzz.Repro.spec);
    check string "config a" r.Fuzz.Repro.config_a r'.Fuzz.Repro.config_a;
    check string "config b" r.Fuzz.Repro.config_b r'.Fuzz.Repro.config_b;
    check (option string) "break" r.Fuzz.Repro.break_config
      r'.Fuzz.Repro.break_config;
    check string "source survives verbatim" (String.trim r.Fuzz.Repro.source)
      (String.trim r'.Fuzz.Repro.source)

let test_repro_save_load_replay () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcl-fuzz-test-%d.lclfuzz" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Fuzz.Repro.save ~path (sample_repro ~break_config:"workers3" ());
      (match Fuzz.Repro.load ~path with
      | Error m -> fail m
      | Ok r -> (
        match Fuzz.Repro.replay r with
        | Ok true -> ()
        | Ok false -> fail "injected divergence did not reproduce"
        | Error m -> fail m));
      (* without the break hook the same case agrees everywhere *)
      Fuzz.Repro.save ~path (sample_repro ());
      match Fuzz.Repro.load ~path with
      | Error m -> fail m
      | Ok r -> (
        match Fuzz.Repro.replay r with
        | Ok false -> ()
        | Ok true -> fail "clean case reported a divergence"
        | Error m -> fail m))

let test_repro_malformed () =
  (match Fuzz.Repro.of_string "garbage" with
  | Error _ -> ()
  | Ok _ -> fail "garbage accepted");
  (match
     Fuzz.Repro.of_string "LCLFUZZ1\nseed 1\ncase 0\ngraph path 4\nproblem\n"
   with
  | Error m -> check bool "missing configs diagnosed" true (String.length m > 0)
  | Ok _ -> fail "missing configs line accepted");
  let bad_config = { (sample_repro ()) with Fuzz.Repro.config_b = "warp9" } in
  match Fuzz.Repro.replay bad_config with
  | Error _ -> ()
  | Ok _ -> fail "unknown config accepted"

(* -- classify corpus (satellite: 200 seeded delta-3 problems) ------------- *)

(* The corpus is its seed list: [corpus_seed i] for i in 0..199, an
   explicit formula checked in here — not 200 problem files. Every
   problem classifies deterministically (byte-stable JSON) and every
   verdict replays clean against brute force / the simulator at small
   sizes. *)
let corpus_size = 200

let corpus_seed i = 0xC1A55 + (7919 * i)

let test_classify_corpus () =
  for i = 0 to corpus_size - 1 do
    let rng = Util.Prng.create ~seed:(corpus_seed i) in
    let k = 2 + (i mod 3) in
    let p = Fuzz.Gen.random_problem rng ~k ~delta:3 in
    let t = Classify.Landscape.classify ~max_iterations:1 ~max_labels:24 p in
    let t' = Classify.Landscape.classify ~max_iterations:1 ~max_labels:24 p in
    if Classify.Landscape.to_json t <> Classify.Landscape.to_json t' then
      failf "corpus %d: classify JSON not byte-stable" i;
    let r = Classify.Landscape.replay ~seed:i ~sizes:[ 4; 5 ] p t in
    if not r.Classify.Landscape.agreement then
      failf "corpus %d (seed %d): replay disagreed: %s" i (corpus_seed i)
        (String.concat "; "
           (List.filter_map
              (fun c ->
                if c.Classify.Landscape.ok then None
                else
                  Some
                    (c.Classify.Landscape.name ^ ": "
                   ^ c.Classify.Landscape.detail))
              r.Classify.Landscape.checks))
  done

(* -- serve differential (satellite: daemon vs direct engine) -------------- *)

let test_serve_differential () =
  Test_cluster.with_daemon ~workers:1 (fun sock ->
      for index = 0 to 3 do
        let case = Fuzz.Gen.case ~seed:0xD1FF ~index in
        let r =
          Fuzz.Oracle.run_case ~seed:(0xD1FF + index) ~serve:sock
            ~case_index:index case.Fuzz.Gen.problem case.Fuzz.Gen.spec
        in
        check bool
          (Printf.sprintf "case %d ran the serve leg" index)
          true
          (List.mem "serve" r.Fuzz.Oracle.configs_run);
        check int
          (Printf.sprintf "case %d divergences" index)
          0
          (List.length r.Fuzz.Oracle.divergences)
      done)

let suites =
  [
    ( "fuzz.gen",
      [
        test_case "case determinism" `Quick test_gen_case_deterministic;
        test_case "screening bias" `Quick test_gen_screening_bias;
        test_case "halving floors" `Quick test_spec_halve_floors;
      ] );
    Helpers.qsuite "fuzz.gen-prop"
      [ prop_spec_roundtrip; prop_case_degree_compatible ];
    ( "fuzz.oracle",
      [
        test_case "clean matrix" `Quick test_oracle_clean_matrix;
        test_case "byte-stable report" `Quick test_oracle_report_byte_stable;
        test_case "report escapes detail" `Quick
          test_oracle_report_escapes_detail;
        test_case "injected break diverges" `Quick test_oracle_injected_break;
        test_case "only filter" `Quick test_oracle_only_filter;
        test_case "subprocess isolation" `Quick test_in_subprocess;
      ] );
    ( "fuzz.shrink",
      [
        test_case "minimizes injected divergence" `Quick
          test_shrink_minimizes_injected;
        test_case "no-op on agreement" `Quick test_shrink_noop_on_agreement;
      ] );
    ( "fuzz.repro",
      [
        test_case "roundtrip" `Quick test_repro_roundtrip;
        test_case "save/load/replay" `Quick test_repro_save_load_replay;
        test_case "malformed files" `Quick test_repro_malformed;
      ] );
    ( "fuzz.classify-corpus",
      [ test_case "200 seeded problems replay clean" `Quick test_classify_corpus ] );
    ( "fuzz.serve",
      [ test_case "daemon vs direct engine" `Quick test_serve_differential ] );
  ]
