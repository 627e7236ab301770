(* Tests for the static-analysis layer: diagnostics rendering, the
   problem linter (structural checks, relim/classify cross-checks,
   golden diagnostics for the degenerate fixtures under
   problems/fixtures/), and the algorithm sanitizer. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

module D = Analysis.Diagnostic

let codes ds = List.map (fun (d : D.t) -> d.D.code) ds
let has_code c ds = List.mem c (codes ds)
let find_code c ds = List.find (fun (d : D.t) -> d.D.code = c) ds

(* -- Diagnostic -------------------------------------------------------- *)

let test_diag_render () =
  let d =
    D.v ~file:"problems/p.lcl" ~line:4 D.Error ~code:"L101" "label 'x' is bad"
  in
  check string "human" "problems/p.lcl:4: error[L101]: label 'x' is bad"
    (D.to_string d);
  check string "no position"
    "info[L201]: fine"
    (D.to_string (D.v D.Info ~code:"L201" "fine"));
  let j = D.to_json (D.v ~line:2 D.Warning ~code:"L102" "say \"hi\"\n") in
  check string "json escaping"
    "{\"code\":\"L102\",\"severity\":\"warning\",\"message\":\"say \
     \\\"hi\\\"\\n\",\"file\":null,\"line\":2}"
    j;
  let report = D.list_to_json [ d ] in
  check bool "report counts" true
    (Helpers.contains ~sub:"\"errors\":1,\"warnings\":0,\"infos\":0" report)

let test_diag_sort () =
  let mk line sev code = D.v ?line sev ~code "m" in
  let sorted =
    List.sort D.compare
      [ mk (Some 9) D.Info "L202"; mk (Some 2) D.Info "L106";
        mk (Some 2) D.Error "L101"; mk None D.Error "L001" ]
  in
  check (Alcotest.list string) "order"
    [ "L001"; "L101"; "L106"; "L202" ]
    (codes sorted)

(* -- Lint: structural checks ------------------------------------------- *)

let ms = Util.Multiset.of_list

let test_lint_clean_zoo () =
  (* the curated zoo is lint-clean: no Errors on any problem *)
  let all =
    [
      Lcl.Zoo.trivial ~delta:3;
      Lcl.Zoo.free_choice ~delta:3;
      Lcl.Zoo.edge_orientation ~delta:3;
      Lcl.Zoo.edge_orientation ~delta:2;
      Lcl.Zoo.echo_input ~delta:2;
      Lcl.Zoo.coloring ~k:3 ~delta:2;
      Lcl.Zoo.coloring ~k:2 ~delta:2;
      Lcl.Zoo.coloring ~k:4 ~delta:3;
      Lcl.Zoo.edge_coloring ~k:3 ~delta:2;
      Lcl.Zoo.mis ~delta:2;
      Lcl.Zoo.mis ~delta:3;
      Lcl.Zoo.maximal_matching ~delta:2;
      Lcl.Zoo.sinkless_orientation ~delta:3;
      Lcl.Zoo.consistent_orientation;
      Lcl.Zoo.period_pattern ~k:3;
      Lcl.Zoo.forbidden_color_coloring;
      Lcl.Zoo.weak_2_coloring ~delta:3 ();
      Lcl.Zoo.weak_2_coloring ~delta:2 ();
    ]
  in
  List.iter
    (fun p ->
      let ds = Analysis.Lint.problem p in
      check bool
        (Lcl.Problem.name p ^ " error-free")
        false (D.has_errors ds))
    all

let test_lint_classification_note () =
  let ds = Analysis.Lint.problem (Lcl.Zoo.coloring ~k:3 ~delta:2) in
  check bool "no errors" false (D.has_errors ds);
  let note = find_code "L202" ds in
  check bool "log* on cycles" true
    (Helpers.contains ~sub:"Theta(log* n) on oriented cycles" note.D.message)

let test_lint_zero_round_witness () =
  let ds = Analysis.Lint.problem (Lcl.Zoo.trivial ~delta:3) in
  let note = find_code "L201" ds in
  check bool "info severity" true (note.D.severity = D.Info);
  check bool "mentions a witness" true
    (Helpers.contains ~sub:"witness" note.D.message);
  (* 3-coloring is Theta(log* n): no 0-round note *)
  check bool "3-coloring not 0-round" false
    (has_code "L201" (Analysis.Lint.problem (Lcl.Zoo.coloring ~k:3 ~delta:2)))

let test_lint_unusable_label () =
  let sigma_out = Lcl.Alphabet.of_names [ "a"; "b" ] in
  let p =
    Lcl.Problem.make_input_free ~name:"unusable" ~delta:1 ~sigma_out
      ~node_cfg:[| [ ms [ 0 ]; ms [ 1 ] ] |]
      ~edge_cfg:[ ms [ 0; 0 ] ]
  in
  let ds = Analysis.Lint.problem p in
  let e = find_code "L101" ds in
  check bool "is error" true (e.D.severity = D.Error);
  check bool "names the label" true (Helpers.contains ~sub:"'b'" e.D.message);
  check bool "names the leg" true
    (Helpers.contains ~sub:"edge configuration" e.D.message);
  check bool "pruned-normal-form note" true (has_code "L106" ds)

let test_lint_cascade_unusable () =
  (* c is dropped only because its sole node row pairs it with dead b *)
  let sigma_out = Lcl.Alphabet.of_names [ "a"; "b"; "c" ] in
  let p =
    Lcl.Problem.make_input_free ~name:"cascade" ~delta:2 ~sigma_out
      ~node_cfg:[| [ ms [ 0 ] ]; [ ms [ 0; 0 ]; ms [ 1; 2 ] ] |]
      ~edge_cfg:[ ms [ 0; 0 ]; ms [ 2; 2 ] ]
  in
  let ds = Analysis.Lint.problem p in
  let cascades =
    List.filter (fun (d : D.t) -> d.D.code = "L101") ds
    |> List.filter (fun (d : D.t) -> Helpers.contains ~sub:"'c'" d.D.message)
  in
  check int "c flagged" 1 (List.length cascades);
  check bool "cascade wording" true
    (Helpers.contains ~sub:"themselves unusable" (List.hd cascades).D.message)

let test_lint_empty_degree_row () =
  let sigma_out = Lcl.Alphabet.of_names [ "x" ] in
  let p =
    Lcl.Problem.make_input_free ~name:"gap" ~delta:2 ~sigma_out
      ~node_cfg:[| [ ms [ 0 ] ]; [] |]
      ~edge_cfg:[ ms [ 0; 0 ] ]
  in
  let ds = Analysis.Lint.problem ~deep:false p in
  let w = find_code "L102" ds in
  check bool "warning" true (w.D.severity = D.Warning);
  check bool "degree named" true (Helpers.contains ~sub:"degree-2" w.D.message)

let test_lint_g_images () =
  let sigma_in = Lcl.Alphabet.of_names [ "ok"; "void"; "doomed" ] in
  let sigma_out = Lcl.Alphabet.of_names [ "a"; "b" ] in
  (* b is unusable (no edge config); g(void) = {}, g(doomed) = {b} *)
  let p =
    Lcl.Problem.make ~name:"bad-g" ~delta:1 ~sigma_in ~sigma_out
      ~node_cfg:[| [ ms [ 0 ]; ms [ 1 ] ] |]
      ~edge_cfg:[ ms [ 0; 0 ] ]
      ~g:
        [| Util.Bitset.of_list [ 0; 1 ]; Util.Bitset.empty;
           Util.Bitset.of_list [ 1 ] |]
  in
  let ds = Analysis.Lint.problem ~deep:false p in
  let empty = find_code "L103" ds in
  check bool "empty image is error" true (empty.D.severity = D.Error);
  check bool "empty image names input" true
    (Helpers.contains ~sub:"'void'" empty.D.message);
  let doomed = find_code "L104" ds in
  check bool "doomed image names input" true
    (Helpers.contains ~sub:"'doomed'" doomed.D.message)

let test_lint_unrealizable_edge () =
  let sigma_out = Lcl.Alphabet.of_names [ "a"; "b" ] in
  let p =
    Lcl.Problem.make_input_free ~name:"ghost-edge" ~delta:1 ~sigma_out
      ~node_cfg:[| [ ms [ 0 ] ] |]
      ~edge_cfg:[ ms [ 0; 0 ]; ms [ 0; 1 ] ]
  in
  let ds = Analysis.Lint.problem ~deep:false p in
  let w = find_code "L105" ds in
  check bool "names missing label" true
    (Helpers.contains ~sub:"'b'" w.D.message)

(* -- Lint: files and golden fixtures ----------------------------------- *)

let problems_dir () =
  List.find_opt Sys.file_exists
    [ "problems"; "../problems"; "../../problems"; "../../../problems" ]

let lcl_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".lcl")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let test_shipped_problems_error_free () =
  match problems_dir () with
  | None -> () (* problem files not visible from this cwd *)
  | Some dir ->
    let files = lcl_files dir in
    check bool "found shipped problems" true (List.length files >= 4);
    List.iter
      (fun f ->
        let ds = Analysis.Lint.file f in
        if D.has_errors ds then
          Alcotest.failf "%s has lint errors: %s" f
            (String.concat "; " (List.map D.to_string ds)))
      files

let golden name expected actual =
  check
    Alcotest.(list (triple string string (option int)))
    name expected
    (List.map
       (fun (d : D.t) -> (d.D.code, D.severity_string d.D.severity, d.D.line))
       actual)

let test_fixture_unusable_label () =
  match problems_dir () with
  | None -> ()
  | Some dir ->
    let f = Filename.concat dir "fixtures/unusable_label.lcl" in
    let ds = Analysis.Lint.file f in
    golden "unusable_label.lcl diagnostics"
      [
        ("L106", "info", Some 4);
        ("L202", "info", Some 4);
        ("L101", "error", Some 5);
      ]
      ds;
    check bool "exit would be non-zero" true (D.has_errors ds);
    (* the same finding carries the file and line through JSON *)
    check bool "json has position" true
      (Helpers.contains ~sub:"\"code\":\"L101\"" (D.list_to_json ds)
      && Helpers.contains ~sub:"\"line\":5" (D.list_to_json ds))

let test_fixture_empty_degree_row () =
  match problems_dir () with
  | None -> ()
  | Some dir ->
    let f = Filename.concat dir "fixtures/empty_degree_row.lcl" in
    let ds = Analysis.Lint.file f in
    golden "empty_degree_row.lcl diagnostics"
      [
        ("L203", "warning", Some 5);
        ("L202", "info", Some 5);
        ("L102", "warning", Some 8);
      ]
      ds;
    check bool "warnings only" false (D.has_errors ds)

let test_fixture_dead_label () =
  match problems_dir () with
  | None -> ()
  | Some dir ->
    let f = Filename.concat dir "fixtures/dead_label.lcl" in
    let ds = Analysis.Lint.file f in
    golden "dead_label.lcl diagnostics"
      [
        ("L202", "info", Some 9);
        ("L107", "warning", Some 10);
        ("L108", "warning", Some 13);
      ]
      ds;
    check bool "warnings only" false (D.has_errors ds);
    check bool "names the dead label" true
      (Helpers.contains ~sub:"dead label 'z'" (find_code "L107" ds).D.message);
    check bool "names the unreachable clause" true
      (Helpers.contains ~sub:"{z c}" (find_code "L108" ds).D.message)

let test_fixture_unreachable_edge () =
  match problems_dir () with
  | None -> ()
  | Some dir ->
    let f = Filename.concat dir "fixtures/unreachable_edge.lcl" in
    let ds = Analysis.Lint.file f in
    (* every label is alive here — only the {z c} clause is dead *)
    golden "unreachable_edge.lcl diagnostics"
      [ ("L202", "info", Some 6); ("L108", "warning", Some 10) ]
      ds;
    check bool "warnings only" false (D.has_errors ds)

let test_lint_parse_error_file () =
  let ds = Analysis.Lint.source ~file:"inline.lcl" "out: a\nedge: a a\n" in
  golden "missing header" [ ("L001", "error", None) ] ds;
  let ds =
    Analysis.Lint.source ~file:"inline.lcl"
      "problem p delta 1\nout: a\nnode 1: zzz\nedge: a a\n"
  in
  golden "unknown label has its line" [ ("L001", "error", Some 3) ] ds

(* -- Sanitizer: LOCAL -------------------------------------------------- *)

let test_sanitizer_flags_cheater () =
  let g = Graph.Builder.cycle 16 in
  let r = Analysis.Sanitizer.check_local Analysis.Sanitizer.radius_cheater g in
  check int "claimed radius" 1 r.Analysis.Sanitizer.claimed_radius;
  check bool "overread detected" true
    (r.Analysis.Sanitizer.overread_radius = Some 2);
  check bool "S001 reported" true
    (has_code "S001" r.Analysis.Sanitizer.diagnostics);
  check bool "errors present" true
    (D.has_errors r.Analysis.Sanitizer.diagnostics)

let test_sanitizer_honest_algorithms () =
  let g = Graph.Builder.oriented_cycle 32 in
  List.iter
    (fun algo ->
      let r = Analysis.Sanitizer.check_local algo g in
      check bool
        (r.Analysis.Sanitizer.algo ^ " clean")
        false
        (D.has_errors r.Analysis.Sanitizer.diagnostics))
    [ Local.Cole_vishkin.three_coloring; Local.Mis.algorithm;
      Local.Matching.algorithm ]

let test_sanitizer_loose_claim () =
  let algo =
    Local.Algorithm.constant ~name:"lazy" ~radius:3 (fun ball ->
        Array.make (Array.length ball.Graph.Ball.adj.(0)) 0)
  in
  let r = Analysis.Sanitizer.check_local algo (Graph.Builder.cycle 16) in
  check int "effective radius 0" 0 r.Analysis.Sanitizer.effective_radius;
  check bool "no violation" true
    (r.Analysis.Sanitizer.overread_radius = None);
  check bool "loose note" true
    (Helpers.contains ~sub:"loose"
       (find_code "S003" r.Analysis.Sanitizer.diagnostics).D.message)

let test_sanitizer_crash_is_reported () =
  let algo =
    Local.Algorithm.constant ~name:"crasher" ~radius:1 (fun _ ->
        invalid_arg "boom")
  in
  let r = Analysis.Sanitizer.check_local algo (Graph.Builder.cycle 8) in
  check bool "S004 reported" true
    (has_code "S004" r.Analysis.Sanitizer.diagnostics)

let test_sanitizer_order_invariance () =
  let g = Graph.Builder.cycle 12 in
  let id_parity =
    Local.Algorithm.constant ~name:"id-parity" ~radius:1 (fun ball ->
        Array.make
          (Array.length ball.Graph.Ball.adj.(0))
          (ball.Graph.Ball.id.(0) mod 2))
  in
  let r =
    Analysis.Sanitizer.check_local ~claims_order_invariance:true id_parity g
  in
  check bool "parity refuted" true
    (r.Analysis.Sanitizer.order_invariant = Some false);
  check bool "S002 reported" true
    (has_code "S002" r.Analysis.Sanitizer.diagnostics);
  (* comparing ranks, not magnitudes: survives re-assignment *)
  let rank_based =
    Local.Algorithm.constant ~name:"local-max" ~radius:1 (fun ball ->
        let open Graph.Ball in
        let higher = ref 0 in
        Array.iter
          (fun e ->
            match e with
            | Some (w, _) -> if ball.id.(w) > ball.id.(0) then incr higher
            | None -> ())
          ball.adj.(0);
        Array.make (Array.length ball.adj.(0)) !higher)
  in
  let r =
    Analysis.Sanitizer.check_local ~claims_order_invariance:true rank_based g
  in
  check bool "rank-based passes" true
    (r.Analysis.Sanitizer.order_invariant = Some true);
  check bool "no errors" false (D.has_errors r.Analysis.Sanitizer.diagnostics)

(* -- Sanitizer: VOLUME ------------------------------------------------- *)

let test_sanitizer_volume_overdraw () =
  let overdrawing : Volume.Probe.t =
    {
      Volume.Probe.name = "overdraw";
      budget = (fun ~n:_ -> 1);
      decide =
        (fun ~n:_ tuples ->
          match Array.length tuples with
          | 1 -> Volume.Probe.Probe (0, 0)
          | 2 -> Volume.Probe.Probe (0, 1)
          | _ -> Volume.Probe.Output [| 0; 0 |]);
    }
  in
  let g = Graph.Builder.cycle 12 in
  let problem = Lcl.Zoo.free_choice ~delta:2 in
  let r = Analysis.Sanitizer.check_volume ~problem overdrawing g in
  check int "claimed budget" 1 r.Analysis.Sanitizer.claimed_budget;
  check int "measured probes" 2 r.Analysis.Sanitizer.max_probes;
  check bool "S101 reported" true
    (has_code "S101" r.Analysis.Sanitizer.diagnostics)

let test_sanitizer_volume_honest () =
  let g = Graph.Builder.cycle 12 in
  let problem = Lcl.Zoo.free_choice ~delta:2 in
  let probe = Volume.Algorithms.constant_choice ~name:"const" 0 in
  let r =
    Analysis.Sanitizer.check_volume ~claims_order_invariance:true ~problem
      probe g
  in
  check bool "no errors" false (D.has_errors r.Analysis.Sanitizer.diagnostics);
  check int "zero probes" 0 r.Analysis.Sanitizer.max_probes;
  check bool "order-invariant" true
    (r.Analysis.Sanitizer.order_invariant = Some true);
  check bool "S103 summary" true
    (has_code "S103" r.Analysis.Sanitizer.diagnostics)

let test_sanitizer_volume_bad_probe () =
  let wild : Volume.Probe.t =
    {
      Volume.Probe.name = "wild";
      budget = (fun ~n:_ -> 4);
      decide = (fun ~n:_ _ -> Volume.Probe.Probe (7, 0));
    }
  in
  let g = Graph.Builder.cycle 8 in
  let problem = Lcl.Zoo.free_choice ~delta:2 in
  let r = Analysis.Sanitizer.check_volume ~problem wild g in
  check bool "S104 reported" true
    (has_code "S104" r.Analysis.Sanitizer.diagnostics)

let suites =
  [
    ( "analysis.diagnostic",
      [
        Alcotest.test_case "rendering" `Quick test_diag_render;
        Alcotest.test_case "sorting" `Quick test_diag_sort;
      ] );
    ( "analysis.lint",
      [
        Alcotest.test_case "zoo is error-free" `Quick test_lint_clean_zoo;
        Alcotest.test_case "classification note" `Quick
          test_lint_classification_note;
        Alcotest.test_case "zero-round witness" `Quick
          test_lint_zero_round_witness;
        Alcotest.test_case "unusable label" `Quick test_lint_unusable_label;
        Alcotest.test_case "cascade unusable" `Quick test_lint_cascade_unusable;
        Alcotest.test_case "empty degree row" `Quick test_lint_empty_degree_row;
        Alcotest.test_case "degenerate g images" `Quick test_lint_g_images;
        Alcotest.test_case "unrealizable edge" `Quick
          test_lint_unrealizable_edge;
        Alcotest.test_case "shipped problems error-free" `Quick
          test_shipped_problems_error_free;
        Alcotest.test_case "fixture: unusable label" `Quick
          test_fixture_unusable_label;
        Alcotest.test_case "fixture: empty degree row" `Quick
          test_fixture_empty_degree_row;
        Alcotest.test_case "fixture: dead label" `Quick test_fixture_dead_label;
        Alcotest.test_case "fixture: unreachable edge" `Quick
          test_fixture_unreachable_edge;
        Alcotest.test_case "parse errors as diagnostics" `Quick
          test_lint_parse_error_file;
      ] );
    ( "analysis.sanitizer",
      [
        Alcotest.test_case "flags radius cheater" `Quick
          test_sanitizer_flags_cheater;
        Alcotest.test_case "honest baselines clean" `Quick
          test_sanitizer_honest_algorithms;
        Alcotest.test_case "loose claim noted" `Quick test_sanitizer_loose_claim;
        Alcotest.test_case "crash reported" `Quick
          test_sanitizer_crash_is_reported;
        Alcotest.test_case "order-invariance claims" `Quick
          test_sanitizer_order_invariance;
        Alcotest.test_case "volume overdraw" `Quick
          test_sanitizer_volume_overdraw;
        Alcotest.test_case "volume honest" `Quick test_sanitizer_volume_honest;
        Alcotest.test_case "volume bad probe" `Quick
          test_sanitizer_volume_bad_probe;
      ] );
  ]
