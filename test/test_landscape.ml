(* Tests for the landscape classifier: golden verdicts and
   certificates over the zoo and the shipped problem files, JSON
   byte-stability, certificate replay (including a QCheck differential
   suite against exhaustive search), the classifier C-codes, and the
   static serve path. *)

module L = Classify.Landscape
module D = Analysis.Diagnostic

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let verdict_t =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (L.verdict_text v))
    ( = )

let zoo name = List.assoc name Serve.Zoo_table.all

let problems_dir () =
  List.find_opt Sys.file_exists
    [ "problems"; "../problems"; "../../problems"; "../../../problems" ]

let load_fixture dir name =
  let path = Filename.concat dir (Filename.concat "fixtures" name) in
  Lcl.Parse.of_string (In_channel.with_open_text path In_channel.input_all)

(* -- golden verdicts over the zoo -------------------------------------- *)

let zoo_expected =
  [
    ("trivial", `V (L.Class L.Constant));
    ("free-choice", `V (L.Class L.Constant));
    ("edge-orientation", `V (L.Class L.Constant));
    ("edge-orientation-d2", `V (L.Class L.Constant));
    ("echo-input", `V (L.Class L.Constant));
    ("3-coloring", `V (L.Class L.Log_star));
    ("2-coloring", `V (L.Class L.Polynomial));
    ("4-coloring-d3", `V (L.Class L.Log_star));
    ("3-edge-coloring", `V (L.Class L.Log_star));
    ("mis", `V (L.Class L.Log_star));
    ("mis-d3", `V (L.Between (L.Log_star, L.Log)));
    ("maximal-matching", `V (L.Class L.Log_star));
    ("sinkless-orientation", `V (L.Between (L.Constant, L.Log)));
    ("consistent-orientation", `V (L.Class L.Constant));
    ("period-3", `V (L.Class L.Log_star));
    ("forbidden-color", `Unsupported);
    ("weak-2-coloring", `V (L.Between (L.Log_star, L.Log)));
    ("weak-2-coloring-d2", `V (L.Class L.Log_star));
  ]

let test_zoo_verdicts () =
  check int "every zoo entry has an expectation"
    (List.length Serve.Zoo_table.all)
    (List.length zoo_expected);
  List.iter
    (fun (name, expect) ->
      let r = L.classify (zoo name) in
      match (expect, r.L.verdict) with
      | `V v, got -> check verdict_t name v got
      | `Unsupported, L.Unsupported _ -> ()
      | `Unsupported, got ->
        Alcotest.failf "%s: expected Unsupported, got %s" name
          (L.verdict_text got))
    zoo_expected

let test_certificates () =
  (* delta = 2: the path automaton is both bounds *)
  let r = L.classify (zoo "3-coloring") in
  check (Alcotest.list string) "sustaining set" [ "c0"; "c1"; "c2" ]
    r.L.certificate.L.sustaining;
  (match r.L.certificate.L.upper with
  | Some (L.U_path_automaton _) -> ()
  | _ -> Alcotest.fail "3-coloring: expected a path-automaton upper");
  (match r.L.certificate.L.lower with
  | L.L_path { verdict = Classify.Cycle_path.Log_star } -> ()
  | _ -> Alcotest.fail "3-coloring: expected a path lower at log*");
  (* delta = 3: greedy-closed sustaining set gives the log* upper *)
  let r = L.classify (zoo "4-coloring-d3") in
  (match r.L.certificate.L.upper with
  | Some (L.U_greedy { set }) -> check int "greedy set size" 4 (List.length set)
  | _ -> Alcotest.fail "4-coloring-d3: expected a greedy upper");
  (* delta = 3, not greedy-closed: chain flexibility gives O(log n) *)
  let r = L.classify (zoo "sinkless-orientation") in
  (match r.L.certificate.L.upper with
  | Some (L.U_chain_flexible { set; flexible }) ->
    check bool "flexible label in set" true (List.mem flexible set)
  | _ -> Alcotest.fail "sinkless-orientation: expected a chain-flexible upper");
  (* O(1) verdicts carry an executable algorithm *)
  let r = L.classify (zoo "echo-input") in
  check bool "echo-input has an executable algo" true (r.L.algo <> None);
  check bool "echo-input reads inputs" true r.L.has_inputs

let test_shipped_problem_files () =
  match problems_dir () with
  | None -> ()
  | Some dir ->
    let classify_file f =
      L.classify
        (Lcl.Parse.of_string
           (In_channel.with_open_text (Filename.concat dir f)
              In_channel.input_all))
    in
    check verdict_t "three_coloring.lcl" (L.Class L.Log_star)
      (classify_file "three_coloring.lcl").L.verdict;
    check verdict_t "weak_two_coloring.lcl"
      (L.Between (L.Log_star, L.Log))
      (classify_file "weak_two_coloring.lcl").L.verdict;
    check verdict_t "sinkless_orientation.lcl"
      (L.Between (L.Constant, L.Log))
      (classify_file "sinkless_orientation.lcl").L.verdict;
    (match (classify_file "list_coloring.lcl").L.verdict with
    | L.Unsupported _ -> ()
    | v -> Alcotest.failf "list_coloring.lcl: %s" (L.verdict_text v))

let test_fixture_verdicts () =
  match problems_dir () with
  | None -> ()
  | Some dir ->
    (* pruning drops 'dead'; the pruned problem is exact 2-coloring *)
    let r = L.classify (load_fixture dir "unusable_label.lcl") in
    check verdict_t "unusable_label" (L.Class L.Polynomial) r.L.verdict;
    check (Alcotest.list string) "pruned labels" [ "dead" ]
      r.L.certificate.L.pruned;
    (* an empty degree row: stars of that degree are unsolvable *)
    let r = L.classify (load_fixture dir "empty_degree_row.lcl") in
    check verdict_t "empty_degree_row" L.Unsolvable r.L.verdict;
    (match r.L.certificate.L.lower with
    | L.L_empty_degree_row _ -> ()
    | _ -> Alcotest.fail "expected an empty-degree-row certificate");
    (* the dead-label fixture is unsolvable on long paths *)
    let r = L.classify (load_fixture dir "dead_label.lcl") in
    check verdict_t "dead_label" L.Unsolvable r.L.verdict;
    let r = L.classify (load_fixture dir "unreachable_edge.lcl") in
    check verdict_t "unreachable_edge" (L.Class L.Constant) r.L.verdict

(* -- JSON -------------------------------------------------------------- *)

let golden_3coloring_json =
  "{\"problem\":\"3-coloring\",\"delta\":2,\"inputs\":false,\
   \"verdict\":\"class\",\"lower\":\"log_star\",\"upper\":\"log_star\",\
   \"detail\":null,\"text\":\"Theta(log* n)\",\"paths\":\"Theta(log* \
   n)\",\"cycles\":\"Theta(log* n)\",\"certificate\":{\"pruned\":[],\
   \"sustaining\":[\"c0\",\"c1\",\"c2\"],\"upper\":{\"kind\":\
   \"path_automaton\",\"state\":\"c0\"},\"lower\":{\"kind\":\
   \"path_automaton\",\"verdict\":\"Theta(log* n)\"}},\"algorithm\":null,\
   \"notes\":[\"gap pipeline budget exceeded at iteration 2 (223 labels): \
   O(1) undecided\"]}"

let test_json_golden () =
  check string "3-coloring JSON, byte for byte" golden_3coloring_json
    (L.to_json (L.classify (zoo "3-coloring")))

let test_json_byte_stable () =
  (* two independent classifications render byte-identically *)
  List.iter
    (fun (name, p) ->
      check string name
        (L.to_json (L.classify p))
        (L.to_json (L.classify p)))
    Serve.Zoo_table.all

(* -- replay ------------------------------------------------------------ *)

let assert_agreement name p =
  let r = L.classify p in
  let rep = L.replay p r in
  if not rep.L.agreement then
    Alcotest.failf "%s: replay disagrees:@ %s" name (L.replay_to_json rep)

let test_replay_zoo () =
  List.iter
    (fun name -> assert_agreement name (zoo name))
    [
      "trivial"; "3-coloring"; "2-coloring"; "mis-d3";
      "sinkless-orientation"; "consistent-orientation"; "echo-input";
    ]

let test_replay_fixtures () =
  match problems_dir () with
  | None -> ()
  | Some dir ->
    List.iter
      (fun f -> assert_agreement f (load_fixture dir f))
      [
        "unusable_label.lcl"; "empty_degree_row.lcl"; "dead_label.lcl";
        "unreachable_edge.lcl";
      ]

(* The differential suite: on random small delta-2 problems the
   classifier is exact (the path/cycle automaton decides), and every
   certificate must replay against exhaustive search. *)
let qcheck_differential =
  QCheck.Test.make ~count:40 ~name:"random LCLs: certificates replay"
    (QCheck.make
       ~print:(fun seed ->
         let rng = Helpers.rng_of_seed seed in
         Printf.sprintf "seed=%d\n%s" seed
           (Lcl.Parse.to_string (Helpers.random_problem rng ~k:3 ~delta:2)))
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Helpers.rng_of_seed seed in
      let p = Helpers.random_problem rng ~k:3 ~delta:2 in
      let r = L.classify p in
      (L.replay p r).L.agreement)

(* -- diagnostics (C-codes) --------------------------------------------- *)

let test_classifier_codes () =
  let code p =
    let d = Analysis.Classifier.of_result (L.classify p) in
    (d.D.code, D.severity_string d.D.severity)
  in
  let pair = Alcotest.pair string string in
  check pair "exact class" ("C201", "info") (code (zoo "3-coloring"));
  check pair "bounds only" ("C202", "info") (code (zoo "mis-d3"));
  check pair "unsupported" ("C204", "info") (code (zoo "forbidden-color"));
  match problems_dir () with
  | None -> ()
  | Some dir ->
    check pair "unsolvable" ("C203", "warning")
      (code (load_fixture dir "empty_degree_row.lcl"))

let test_replay_disagreement_code () =
  let p = zoo "3-coloring" in
  let r = L.classify p in
  (* a clean replay files nothing *)
  check int "agreement: no diagnostics" 0
    (List.length (Analysis.Classifier.of_replay r (L.replay p r)));
  (* a fabricated failing check surfaces as a C205 error *)
  let broken =
    {
      L.agreement = false;
      L.checks =
        [
          { L.name = "paths(3..10)"; ok = true; detail = "fine" };
          { L.name = "witness(star)"; ok = false; detail = "solvable after all" };
        ];
    }
  in
  match Analysis.Classifier.of_replay r broken with
  | [ d ] ->
    check string "code" "C205" d.D.code;
    check bool "severity error" true (d.D.severity = D.Error);
    check bool "names the check" true
      (Helpers.contains ~sub:"witness(star)" d.D.message)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

(* -- observability + the static serve path ---------------------------- *)

let test_obs_counters () =
  let p = zoo "3-coloring" in
  let (), events, metrics =
    Helpers.with_trace (fun () ->
        let r = L.classify p in
        ignore (L.replay p r))
  in
  Helpers.assert_counter metrics "landscape.classify" 1;
  Helpers.assert_counter metrics "landscape.replay" 1;
  Helpers.assert_span_count events "landscape.classify" 1;
  Helpers.assert_span_count events "landscape.replay" 1

let test_serve_classify_static () =
  (* the serve answer is the classifier JSON, computed without a
     single simulator invocation (replay never runs in the daemon) *)
  let req = Serve.Protocol.Classify { problem = "3-coloring" } in
  let r, _, metrics = Helpers.with_trace (fun () -> Serve.Engine.answer req) in
  (match r with
  | Serve.Protocol.Answer text ->
    check string "serve = classifier JSON" (golden_3coloring_json ^ "\n") text
  | r -> Alcotest.fail (Serve.Protocol.response_to_string r));
  Helpers.assert_counter metrics "landscape.classify" 1;
  Helpers.assert_counter metrics "landscape.replay" 0;
  Helpers.assert_counter metrics "runner.runs" 0;
  Helpers.assert_counter metrics "runner.algo_invocations" 0

let suites =
  [
    ( "landscape.verdicts",
      [
        Alcotest.test_case "zoo golden verdicts" `Quick test_zoo_verdicts;
        Alcotest.test_case "certificates" `Quick test_certificates;
        Alcotest.test_case "shipped problem files" `Quick
          test_shipped_problem_files;
        Alcotest.test_case "fixtures" `Quick test_fixture_verdicts;
      ] );
    ( "landscape.json",
      [
        Alcotest.test_case "golden report" `Quick test_json_golden;
        Alcotest.test_case "byte-stable over the zoo" `Quick
          test_json_byte_stable;
      ] );
    ( "landscape.replay",
      [
        Alcotest.test_case "zoo certificates replay" `Slow test_replay_zoo;
        Alcotest.test_case "fixture certificates replay" `Quick
          test_replay_fixtures;
      ] );
    Helpers.qsuite "landscape.differential" [ qcheck_differential ];
    ( "landscape.diagnostics",
      [
        Alcotest.test_case "C-codes" `Quick test_classifier_codes;
        Alcotest.test_case "replay disagreement is C205" `Quick
          test_replay_disagreement_code;
      ] );
    ( "landscape.obs",
      [
        Alcotest.test_case "spans and counters" `Quick test_obs_counters;
        Alcotest.test_case "serve classify is static" `Quick
          test_serve_classify_static;
      ] );
  ]
