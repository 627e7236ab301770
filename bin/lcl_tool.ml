(* lcl_tool — command line interface to the library.

   Subcommands:
     show       parse a problem file and pretty-print it
     classify   static landscape classification with replayable certificates
     gap        run the tree gap pipeline (Theorem 3.10) on a problem
     eliminate  apply k round elimination steps and print the result
     simulate   run a named algorithm on a generated graph and verify
     zoo        list the built-in problems
     lint       static diagnostics over problem files (Analysis.Lint)
     sanitize   check an algorithm's claimed radius / order-invariance
     faultsim   run a workload under a fault plan, report degradation

   Problems are given either as a file in the [Lcl.Parse] format or as
   the name of a zoo problem (see `lcl_tool zoo`). *)

open Cmdliner

(* the zoo lives in [Serve.Zoo_table] so daemon requests accept the
   same problem names as the command line *)
let zoo_problems = Serve.Zoo_table.all

let load_problem spec =
  match List.assoc_opt spec zoo_problems with
  | Some p -> Ok p
  | None -> (
    match In_channel.with_open_text spec In_channel.input_all with
    | text -> (
      try Ok (Lcl.Parse.of_string text) with
      | Lcl.Parse.Parse_error { message; line } ->
        Error
          (Printf.sprintf "parse error: %s"
             (Lcl.Parse.error_to_string ~message ~line)))
    | exception Sys_error m -> Error m)

let problem_arg =
  let doc = "Problem: a zoo name (see the zoo subcommand) or a file path." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROBLEM" ~doc)

let with_problem f spec =
  match load_problem spec with
  | Ok p -> f p
  | Error m ->
    Fmt.epr "error: %s@." m;
    exit 1

(* -- show -------------------------------------------------------------- *)

let show_cmd =
  let run = with_problem (fun p -> Fmt.pr "%a@." Lcl.Problem.pp p) in
  Cmd.v (Cmd.info "show" ~doc:"Parse and pretty-print a problem")
    Term.(const run $ problem_arg)

(* -- zoo --------------------------------------------------------------- *)

let zoo_cmd =
  let run () =
    List.iter
      (fun (name, p) ->
        Fmt.pr "%-24s delta=%d  |out|=%d@." name (Lcl.Problem.delta p)
          (Lcl.Alphabet.size (Lcl.Problem.sigma_out p)))
      zoo_problems
  in
  Cmd.v (Cmd.info "zoo" ~doc:"List built-in problems") Term.(const run $ const ())

(* -- gap ---------------------------------------------------------------- *)

let iterations_arg =
  Arg.(value & opt int 4 & info [ "iterations" ] ~doc:"Max f-iterations.")

let labels_arg =
  Arg.(value & opt int 400 & info [ "max-labels" ] ~doc:"Label budget.")

let gap_cmd =
  let run iters labels =
    with_problem (fun p ->
        let r = Relim.Pipeline.run ~max_iterations:iters ~max_labels:labels p in
        List.iter
          (fun (e : Relim.Pipeline.trace_entry) ->
            Fmt.pr "f^%d: %4d labels, 0-round solvable: %b@." e.iteration
              e.labels e.zero_round)
          r.Relim.Pipeline.trace;
        Fmt.pr "verdict: %a@." Relim.Pipeline.pp_verdict r.Relim.Pipeline.verdict;
        match r.Relim.Pipeline.verdict with
        | Relim.Pipeline.Constant { algo; _ } ->
          let v = Classify.Tree_gap.validate ~problem:p algo in
          Fmt.pr "validation on random forests: %s@."
            (if v.Classify.Tree_gap.all_valid then "all valid" else "FAILURES")
        | _ -> ())
  in
  Cmd.v
    (Cmd.info "gap" ~doc:"Run the Theorem 3.10 gap pipeline on a problem")
    Term.(const run $ iterations_arg $ labels_arg $ problem_arg)

(* -- eliminate ---------------------------------------------------------- *)

let steps_arg =
  Arg.(value & opt int 1 & info [ "steps" ] ~doc:"Number of f = R~(R(.)) steps.")

let eliminate_cmd =
  let run steps =
    with_problem (fun p ->
        let rec go k p =
          if k = 0 then p
          else begin
            let s = Relim.Eliminate.speedup_step p in
            let q = s.Relim.Eliminate.after.Relim.Eliminate.problem in
            Fmt.pr "-- after step %d: %d labels --@."
              (steps - k + 1)
              (Lcl.Alphabet.size (Lcl.Problem.sigma_out q));
            go (k - 1) q
          end
        in
        let q = go steps p in
        Fmt.pr "%a@." Lcl.Problem.pp q)
  in
  Cmd.v
    (Cmd.info "eliminate" ~doc:"Apply round elimination steps and print")
    Term.(const run $ steps_arg $ problem_arg)

(* -- simulate ----------------------------------------------------------- *)

let n_arg = Arg.(value & opt int 64 & info [ "n" ] ~doc:"Graph size.")

let algo_arg =
  let doc = "Algorithm: " ^ String.concat ", " Local.Baselines.names ^ "." in
  Arg.(value & opt string "cv-coloring" & info [ "algo" ] ~doc)

(* Every subcommand resolves LOCAL algorithm names in the one table
   [Serve.Engine] uses too; an unknown name is a usage error. *)
let local_algo ~cmd algo_name =
  match Local.Baselines.find algo_name with
  | Some entry -> entry
  | None ->
    Fmt.epr "%s: unknown algorithm %s@." cmd algo_name;
    exit 2

let check_n ~cmd n =
  if n < 3 then begin
    Fmt.epr "%s: -n must be >= 3 (got %d)@." cmd n;
    exit 2
  end

(* Every JSON report is one line on stdout. *)
let print_json fields = print_endline (Json.to_string (Obj fields))

let workers_arg =
  Arg.(
    value & opt (some int) None
    & info [ "workers" ]
        ~doc:
          "Forked worker processes for the simulation engine (default \
           $(b,\\$LCL_WORKERS)); the labeling is identical at any count.")

let simulate_cmd =
  let run n algo_name workers () =
    check_n ~cmd:"simulate" n;
    let algo, problem = local_algo ~cmd:"simulate" algo_name in
    let g = Graph.Builder.oriented_cycle n in
    let o = Local.Runner.run ?workers ~problem algo g in
    Fmt.pr "%s on oriented C_%d: radius %d, violations %d@." algo_name n
      o.Local.Runner.radius_used
      (List.length o.Local.Runner.violations)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a baseline algorithm on an oriented cycle")
    Term.(const run $ n_arg $ algo_arg $ workers_arg $ const ())

(* -- volume ------------------------------------------------------------ *)

let volume_algo_arg =
  let doc = "Probe algorithm: cv-coloring, walker, const." in
  Arg.(value & opt string "cv-coloring" & info [ "algo" ] ~doc)

(* The VOLUME workloads by probe algorithm [key]: the algorithm, its
   problem and the cycle it runs on (the walker's is even). [name] is
   what the user typed, for the usage error. *)
let volume_workload ~name key n =
  match key with
  | "cv-coloring" ->
    ( Volume.Algorithms.cv_coloring,
      Lcl.Zoo_oriented.coloring ~k:3,
      Lcl.Zoo_oriented.mark_orientation_inputs (Graph.Builder.oriented_cycle n)
    )
  | "walker" ->
    ( Volume.Algorithms.two_coloring_walker,
      Lcl.Zoo_oriented.coloring ~k:2,
      Lcl.Zoo_oriented.mark_orientation_inputs
        (Graph.Builder.oriented_cycle (2 * ((n + 1) / 2))) )
  | "const" ->
    ( Volume.Algorithms.constant_choice ~name:"const" 0,
      Lcl.Zoo.free_choice ~delta:2,
      Graph.Builder.cycle n )
  | _ ->
    Fmt.epr "unknown probe algorithm %s@." name;
    exit 2

let volume_cmd =
  let run n algo_name workers () =
    check_n ~cmd:"volume" n;
    let algo, problem, g = volume_workload ~name:algo_name algo_name n in
    let o = Volume.Probe.run ?workers ~problem algo g in
    Fmt.pr "%s on C_%d: max probes %d, total %d, violations %d@." algo_name
      (Graph.n g) o.Volume.Probe.max_probes o.Volume.Probe.total_probes
      (List.length o.Volume.Probe.violations)
  in
  Cmd.v
    (Cmd.info "volume" ~doc:"Run a VOLUME (probe) algorithm on a cycle")
    Term.(const run $ n_arg $ volume_algo_arg $ workers_arg $ const ())

(* -- lint ---------------------------------------------------------------- *)

let lint_cmd =
  let files_arg =
    let doc = "Problem files (.lcl) to lint." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Non-zero exit on warnings, not only errors.")
  in
  let fast_arg =
    Arg.(
      value & flag
      & info [ "fast" ]
          ~doc:
            "Structural checks only: skip the 0-round-solvability and \
             degree-2 classification cross-checks.")
  in
  let run files json strict fast () =
    let diags =
      List.concat_map (fun f -> Analysis.Lint.file ~deep:(not fast) f) files
      |> List.sort Analysis.Diagnostic.compare
    in
    let errors = Analysis.Diagnostic.count Analysis.Diagnostic.Error diags in
    let warnings = Analysis.Diagnostic.count Analysis.Diagnostic.Warning diags in
    if json then print_endline (Analysis.Diagnostic.list_to_json diags)
    else begin
      List.iter
        (fun d -> Fmt.pr "%a@." Analysis.Diagnostic.pp d)
        diags;
      Fmt.pr "%d file%s linted: %d error%s, %d warning%s, %d info%s@."
        (List.length files)
        (if List.length files = 1 then "" else "s")
        errors
        (if errors = 1 then "" else "s")
        warnings
        (if warnings = 1 then "" else "s")
        (Analysis.Diagnostic.count Analysis.Diagnostic.Info diags)
        (if Analysis.Diagnostic.count Analysis.Diagnostic.Info diags = 1 then
           ""
         else "s")
    end;
    if errors > 0 || (strict && warnings > 0) then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze problem files: structural diagnostics \
          (unusable labels, empty degree rows, degenerate g-images, pruned \
          normal form) plus 0-round-triviality and degree-2 classification \
          notes")
    Term.(const run $ files_arg $ json_arg $ strict_arg $ fast_arg $ const ())

(* -- sanitize ------------------------------------------------------------ *)

let sanitize_cmd =
  let algo_arg =
    let doc =
      "Algorithm to sanitize: cv-coloring, mis, matching, luby, or \
       radius-cheater (a negative control claiming radius 1 while reading \
       radius 2)."
    in
    Arg.(value & opt string "cv-coloring" & info [ "algo" ] ~doc)
  in
  let order_arg =
    Arg.(
      value & flag
      & info [ "order-invariant" ]
          ~doc:"Also check a claim of order-invariance (Def. 2.7).")
  in
  let run n algo_name order () =
    check_n ~cmd:"sanitize" n;
    let algo =
      if algo_name = "radius-cheater" then Analysis.Sanitizer.radius_cheater
      else fst (local_algo ~cmd:"sanitize" algo_name)
    in
    let g = Graph.Builder.oriented_cycle n in
    let r =
      Analysis.Sanitizer.check_local ~claims_order_invariance:order algo g
    in
    List.iter
      (fun d -> Fmt.pr "%a@." Analysis.Diagnostic.pp d)
      r.Analysis.Sanitizer.diagnostics;
    if Analysis.Diagnostic.has_errors r.Analysis.Sanitizer.diagnostics then
      exit 1
  in
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:
         "Check that an algorithm honors its claimed radius (and optionally \
          order-invariance) on sampled views of an oriented cycle")
    Term.(const run $ n_arg $ algo_arg $ order_arg $ const ())

(* -- observability helpers ---------------------------------------------- *)

(* [--metrics] on the workload commands: flip the switch on for the
   run and append the metric snapshot as JSONL after the report. The
   snapshot holds pure counts (never wall times), so it is as
   byte-stable as the report it follows. *)

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Record observability metrics during the run and print the \
           nonzero ones as JSON lines after the report.")

let obs_begin metrics = if metrics then begin Obs.enable (); Obs.reset () end

let obs_end metrics =
  if metrics then print_string (Obs.Export.jsonl [] (Obs.Metrics.snapshot ()))

(* -- classify ------------------------------------------------------------ *)

let classify_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the byte-stable JSON report instead of text.")
  in
  let replay_arg =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "Cross-check the certificate against exhaustive search and the \
             simulator on small instances; disagreements are C205 errors \
             and exit status 1.")
  in
  let iters_arg =
    Arg.(
      value & opt int 3
      & info [ "iterations" ] ~doc:"Gap pipeline iteration budget.")
  in
  let max_labels_arg =
    Arg.(
      value & opt int 200
      & info [ "max-labels" ] ~doc:"Gap pipeline label budget.")
  in
  let run json replay iters max_labels workers metrics =
    with_problem (fun p ->
        obs_begin metrics;
        let r =
          Classify.Landscape.classify ~max_iterations:iters
            ~max_labels p
        in
        if json then print_string (Classify.Landscape.to_json r ^ "\n")
        else Fmt.pr "@[<v>%a@]@." Classify.Landscape.pp r;
        let disagreements =
          if not replay then []
          else begin
            let rep = Classify.Landscape.replay ?workers p r in
            if json then
              print_string (Classify.Landscape.replay_to_json rep ^ "\n")
            else Fmt.pr "@[<v>%a@]@." Classify.Landscape.pp_replay rep;
            Analysis.Classifier.of_replay r rep
          end
        in
        obs_end metrics;
        if disagreements <> [] then begin
          List.iter
            (fun d -> Fmt.epr "%a@." Analysis.Diagnostic.pp d)
            disagreements;
          exit 1
        end)
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:
         "Statically classify a problem in the tree landscape (O(1) / \
          Theta(log* n) / Theta(log n) / n^Theta(1)) with replayable \
          certificates")
    Term.(
      const run $ json_arg $ replay_arg $ iters_arg $ max_labels_arg
      $ workers_arg $ metrics_arg $ problem_arg)

(* -- trace --------------------------------------------------------------- *)

let trace_cmd =
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "out" ]
          ~doc:
            "Chrome-trace output file; load it in chrome://tracing or \
             Perfetto.")
  in
  let jsonl_arg =
    Arg.(
      value & opt (some string) None
      & info [ "jsonl" ]
          ~doc:
            "Also write the byte-stable JSONL event log here (identical \
             across same-seed runs).")
  in
  let domains_arg =
    Arg.(
      value & opt (some int) None
      & info [ "domains" ] ~doc:"Engine worker domains (default $LCL_DOMAINS).")
  in
  let memo_arg =
    Arg.(value & flag & info [ "memo" ] ~doc:"Enable the view memo cache.")
  in
  let seed_arg =
    Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"Run seed.")
  in
  let problem_opt_arg =
    let doc =
      "Optional problem (zoo name or file): trace the gap pipeline on it \
       instead of a LOCAL workload."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"PROBLEM" ~doc)
  in
  let run n algo_name domains memo seed iters labels out jsonl_file
      problem_opt () =
    check_n ~cmd:"trace" n;
    Obs.enable ();
    Obs.reset ();
    (match problem_opt with
    | Some spec ->
      with_problem
        (fun p ->
          let r =
            Relim.Pipeline.run ~max_iterations:iters ~max_labels:labels p
          in
          Fmt.pr "verdict: %a@." Relim.Pipeline.pp_verdict
            r.Relim.Pipeline.verdict)
        spec
    | None ->
      let algo, problem = local_algo ~cmd:"trace" algo_name in
      let g = Graph.Builder.oriented_cycle n in
      let o = Local.Runner.run ~seed ?domains ~memo ~problem algo g in
      Fmt.pr "%s on oriented C_%d: radius %d, violations %d@." algo_name n
        o.Local.Runner.radius_used
        (List.length o.Local.Runner.violations));
    let events = Obs.Span.collect () in
    let metrics = Obs.Metrics.snapshot () in
    Out_channel.with_open_text out (fun oc ->
        Out_channel.output_string oc (Obs.Export.chrome events));
    Option.iter
      (fun f ->
        Out_channel.with_open_text f (fun oc ->
            Out_channel.output_string oc (Obs.Export.jsonl events metrics)))
      jsonl_file;
    print_string (Obs.Export.summary events metrics);
    Fmt.pr "chrome trace: %s (%d spans, %d dropped)@." out (List.length events)
      (Obs.Span.dropped ())
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload (a LOCAL algorithm on an oriented cycle, or the gap \
          pipeline on PROBLEM) with observability on and export the trace: \
          Chrome-trace JSON, optional byte-stable JSONL, text summary")
    Term.(
      const run $ n_arg $ algo_arg $ domains_arg $ memo_arg $ seed_arg
      $ iterations_arg $ labels_arg $ out_arg $ jsonl_arg $ problem_opt_arg
      $ const ())

(* -- faultsim ------------------------------------------------------------ *)

(* Chaos with a replay button: run a LOCAL algorithm, a VOLUME probe
   algorithm, or the gap pipeline under an explicit fault plan and
   emit a JSON degradation report. The plan comes from --plan (a file
   written by an earlier run) or is drawn from --fault-seed and the
   intensity flags and embedded verbatim in the report — so piping the
   report's "plan" object back through --plan replays the exact run.
   Reports carry no wall times: the same invocation prints the same
   bytes at any worker count, which the CI chaos job diffs. *)

let faultsim_plan_of_args ~plan_file ~fault_seed ~crash ~sever ~corrupt ~flip
    ~probe_loss g =
  match plan_file with
  | Some f -> (
    match In_channel.with_open_text f In_channel.input_all with
    | exception Sys_error m -> Error (Fault.Error.f ~code:"F301" "%s" m)
    | text -> (
      match Fault.Plan.of_string text with
      | Ok p -> Ok p
      | Error e -> Error e))
  | None ->
    let spec =
      Fault.Plan.spec ~crash ~sever ~corrupt ~flip ~probe:probe_loss ()
    in
    Ok (Fault.Plan.generate ~label:"faultsim" ~seed:fault_seed ~spec g)

let faultsim_statuses_json (statuses : Fault.status array) =
  let worst =
    Array.to_list statuses
    |> List.mapi (fun v s -> (v, s))
    |> List.filter_map (fun (v, s) ->
           match s with
           | Fault.Errored e ->
             Some
               (Json.Obj [ ("node", Int v); ("error", Fault.Error.to_json e) ])
           | _ -> None)
  in
  (* cap the error detail so huge graphs keep reports readable *)
  Json.List
    (if List.length worst > 8 then
       List.filteri (fun i _ -> i < 8) worst
     else worst)

let faultsim_local_report ~algo_name ~n (o : Local.Runner.resilient_outcome) =
  Local.Runner.faultsim_fields ~algo:algo_name ~n o
  @ [ ("errors", faultsim_statuses_json o.Local.Runner.report.statuses) ]

let faultsim_volume_report ~algo_name ~n (o : Volume.Probe.resilient_outcome) =
  let r = o.Volume.Probe.report in
  Json.
    [
      ("faultsim", String "volume");
      ("algo", String algo_name);
      ("n", Int n);
      ("plan", Fault.Plan.to_json r.Volume.Probe.applied);
      ("max_probes", Int o.Volume.Probe.r_max_probes);
      ("total_probes", Int o.Volume.Probe.r_total_probes);
      ("ok", Int r.Volume.Probe.ok_nodes);
      ("crashed", Int r.Volume.Probe.crashed_nodes);
      ("starved", Int r.Volume.Probe.starved_nodes);
      ("errored", Int r.Volume.Probe.errored_nodes);
      ("retries_used", Int r.Volume.Probe.retries_used);
      ("healthy_violations", Int (List.length o.Volume.Probe.healthy_violations));
      ("errors", faultsim_statuses_json r.Volume.Probe.statuses);
    ]

let faultsim_verdict_string = function
  | Relim.Pipeline.Constant { rounds; _ } ->
    Printf.sprintf "constant:%d" rounds
  | Relim.Pipeline.Lower_bound_log_star { fixed_point_at } ->
    Printf.sprintf "log_star_lower_bound:%d" fixed_point_at
  | Relim.Pipeline.Budget_exceeded { at_iteration; labels } ->
    Printf.sprintf "budget_exceeded:%d:%d" at_iteration labels
  | Relim.Pipeline.Deadline_exceeded { at_iteration; _ } ->
    (* no elapsed time: reports must be byte-stable across runs *)
    Printf.sprintf "deadline_exceeded:%d" at_iteration

let faultsim_cmd =
  let algo_arg =
    let doc =
      "Workload when no PROBLEM is given: a LOCAL algorithm (cv-coloring, \
       mis, matching, luby) on an oriented cycle, or a VOLUME one \
       (probe-cv-coloring, probe-walker, probe-const) on a cycle."
    in
    Arg.(value & opt string "cv-coloring" & info [ "algo" ] ~doc)
  in
  let plan_arg =
    Arg.(
      value & opt (some file) None
      & info [ "plan" ] ~doc:"Fault plan JSON file (overrides generation).")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~doc:"Seed for drawing the fault plan.")
  in
  let rate name doc = Arg.(value & opt float 0. & info [ name ] ~doc) in
  let crash_arg = rate "crash" "Crash-stop node fraction in [0,1]." in
  let sever_arg = rate "sever" "Severed (message-loss) edge fraction." in
  let corrupt_arg = rate "corrupt" "Corrupted-identifier node fraction." in
  let flip_arg = rate "flip" "Randomness-bit-flip node fraction." in
  let probe_loss_arg = rate "probe-loss" "Lost-probe fraction (VOLUME)." in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~doc:"Re-attempts for failing nodes/runs.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ]
          ~doc:"Pipeline wall-clock deadline in seconds (PROBLEM mode).")
  in
  let seed_arg =
    Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"Run seed.")
  in
  let problem_opt_arg =
    let doc =
      "Optional problem (zoo name or file): run the gap pipeline under \
       --deadline and validate a Constant verdict's algorithm resiliently \
       on a random forest."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"PROBLEM" ~doc)
  in
  let fail_error e =
    Fmt.epr "error: %s@." (Fault.Error.to_string e);
    exit 1
  in
  let with_plan ~plan_file ~fault_seed ~crash ~sever ~corrupt ~flip
      ~probe_loss g k =
    match
      faultsim_plan_of_args ~plan_file ~fault_seed ~crash ~sever ~corrupt
        ~flip ~probe_loss g
    with
    | Error e -> fail_error e
    | Ok plan -> k plan
  in
  let print_report = function
    | Error e -> fail_error e
    | Ok fields -> print_json fields
  in
  (* the plan is drawn on the workload's own graph *)
  let run_workload ~algo_name ~n ~retries ~seed ~workers with_plan =
    if String.starts_with ~prefix:"probe-" algo_name then begin
      let key = String.sub algo_name 6 (String.length algo_name - 6) in
      let algo, problem, g = volume_workload ~name:algo_name key n in
      with_plan g (fun plan ->
          print_report
            (Result.map
               (faultsim_volume_report ~algo_name ~n:(Graph.n g))
               (Volume.Probe.run_resilient ~seed ?workers ~plan ~retries
                  ~problem algo g)))
    end
    else
      let algo, problem = local_algo ~cmd:"faultsim" algo_name in
      let g = Graph.Builder.oriented_cycle n in
      with_plan g (fun plan ->
          print_report
            (Result.map
               (faultsim_local_report ~algo_name ~n)
               (Local.Runner.run_resilient ~seed ?workers ~plan ~retries
                  ~problem algo g)))
  in
  let run_pipeline ~n ~plan_file ~fault_seed ~crash ~sever ~corrupt ~flip
      ~probe_loss ~retries ~deadline ~seed spec =
    with_problem
      (fun p ->
        match Relim.Pipeline.run_result ?deadline p with
        | Error e -> fail_error e
        | Ok r ->
          let base =
            Json.
              [
                ("faultsim", String "pipeline");
                ("problem", String spec);
                ( "verdict",
                  String (faultsim_verdict_string r.Relim.Pipeline.verdict) );
                ("iterations", Int (List.length r.Relim.Pipeline.trace));
              ]
          in
          let extra =
            match r.Relim.Pipeline.verdict with
            | Relim.Pipeline.Constant { algo; _ } ->
              (* validate the lifted algorithm resiliently on a random
                 forest under the same fault machinery *)
              let rng = Util.Prng.create ~seed:fault_seed in
              let g =
                Graph.Builder.random_forest rng
                  ~delta:(Lcl.Problem.delta p)
                  ~trees:(max 1 (n / 10))
                  (max 2 n)
              in
              let wrapped =
                {
                  Local.Algorithm.name = "lifted-" ^ Lcl.Problem.name p;
                  radius = (fun ~n:_ -> algo.Relim.Lift.radius);
                  run = algo.Relim.Lift.run;
                }
              in
              with_plan ~plan_file ~fault_seed ~crash ~sever ~corrupt ~flip
                ~probe_loss g (fun plan ->
                  match
                    Local.Runner.run_resilient ~seed ~plan ~retries ~problem:p
                      wrapped g
                  with
                  | Error e -> fail_error e
                  | Ok o ->
                    let rr = o.Local.Runner.report in
                    Json.
                      [
                        ("plan", Fault.Plan.to_json plan);
                        ("validation_n", Int (Graph.n g));
                        ("ok", Int rr.ok_nodes);
                        ("crashed", Int rr.crashed_nodes);
                        ("starved", Int rr.starved_nodes);
                        ("errored", Int rr.errored_nodes);
                        ( "healthy_violations",
                          Int (List.length o.healthy_violations) );
                      ])
            | Relim.Pipeline.Deadline_exceeded _ ->
              (* a checkpoint would embed wall times via Marshal floats;
                 report only its size so output stays byte-stable *)
              let ck = Relim.Pipeline.checkpoint r in
              [ ("checkpoint_bytes", Json.Int (String.length ck)) ]
            | _ -> []
          in
          print_json (base @ extra))
      spec
  in
  let run n algo_name plan_file fault_seed crash sever corrupt flip probe_loss
      retries deadline seed workers problem_opt metrics () =
    check_n ~cmd:"faultsim" n;
    obs_begin metrics;
    (match problem_opt with
    | Some spec ->
      run_pipeline ~n ~plan_file ~fault_seed ~crash ~sever ~corrupt ~flip
        ~probe_loss ~retries ~deadline ~seed spec
    | None ->
      run_workload ~algo_name ~n ~retries ~seed ~workers
        (with_plan ~plan_file ~fault_seed ~crash ~sever ~corrupt ~flip
           ~probe_loss));
    obs_end metrics
  in
  Cmd.v
    (Cmd.info "faultsim"
       ~doc:
         "Run a workload under an explicit fault plan (crash-stop nodes, \
          severed edges, corrupted ids, randomness flips, lost probes) and \
          print a deterministic JSON degradation report; plans replay \
          bit-identically via --plan")
    Term.(
      const run $ n_arg $ algo_arg $ plan_arg $ fault_seed_arg $ crash_arg
      $ sever_arg $ corrupt_arg $ flip_arg $ probe_loss_arg $ retries_arg
      $ deadline_arg $ seed_arg $ workers_arg $ problem_opt_arg $ metrics_arg
      $ const ())

(* -- bench-runner ------------------------------------------------------- *)

(* Timed series over the simulation engine, one JSON object per line,
   for looking at the engine on one machine; no BENCH_*.json file
   records them. Each workload is measured sequentially (domains=1, no
   memo: the seed path) and then on the configured engine; speedup is
   engine vs. sequential within the same invocation. *)

(* A wall time (or ratio) rounded to [digits] decimals. *)
let rounded digits x =
  let scale = 10. ** float_of_int digits in
  Json.Float (Float.round (x *. scale) /. scale)

let bench_json ~workload ~n ~memo (o : Local.Runner.outcome) ~speedup =
  let s = o.Local.Runner.stats in
  print_json
    (Json.
       [
         ("bench", String "runner"); ("workload", String workload);
         ("n", Int n); ("radius", Int o.Local.Runner.radius_used);
         ("domains", Int s.Local.Runner.domains_used); ("memo", Bool memo);
         ("balls", Int s.Local.Runner.balls_extracted);
         ("cache_hits", Int s.Local.Runner.cache_hits);
         ("distinct_views", Int s.Local.Runner.distinct_views);
         ("simulate_s", rounded 6 s.Local.Runner.simulate_seconds);
         ("verify_s", rounded 6 s.Local.Runner.verify_seconds);
         ("total_s", rounded 6 s.Local.Runner.total_seconds);
         ("violations", Int (List.length o.Local.Runner.violations));
       ]
    @ Option.fold speedup ~none:[] ~some:(fun x ->
          [ ("speedup_vs_seq", rounded 2 x) ]))

let bench_runner_cmd =
  let domains_arg =
    Arg.(
      value & opt int 0
      & info [ "domains" ]
          ~doc:
            "Engine worker domains; 0 (the default) means min(4, core \
             count) — oversubscribing cores only adds GC barriers.")
  in
  let cycle_n_arg =
    Arg.(value & opt int 16384 & info [ "cycle-n" ] ~doc:"Cycle workload size.")
  in
  let side_arg =
    Arg.(value & opt int 24 & info [ "side" ] ~doc:"Torus side length.")
  in
  let run domains cycle_n side metrics () =
    obs_begin metrics;
    if side < 3 then begin
      Fmt.epr "bench-runner: --side must be >= 3 (got %d)@." side;
      exit 2
    end;
    if cycle_n < 3 then begin
      Fmt.epr "bench-runner: --cycle-n must be >= 3 (got %d)@." cycle_n;
      exit 2
    end;
    let domains =
      if domains >= 1 then domains else min 4 (Util.Parallel.recommended ())
    in
    (* (label, algo, problem, graph, ids, memo-soundness) per workload;
       memo stays off for id-reading algorithms (CV, torus coloring) *)
    let cycle = Graph.Builder.oriented_cycle cycle_n in
    let torus = Grid.Problems.mark_tag_inputs (Grid.Torus.make [| side; side |]) in
    let tg = Grid.Torus.graph torus in
    let tids = (Grid.Torus.prod_ids torus).Grid.Torus.packed in
    let workloads =
      [
        ( "cycle-cv3", cycle_n, Local.Cole_vishkin.three_coloring,
          Lcl.Zoo.coloring ~k:3 ~delta:2, cycle, `Random, false );
        ( "torus-echo", side * side, Grid.Algorithms.dimension_echo,
          Grid.Problems.dimension_echo ~d:2, tg, `Fixed tids, true );
        ( "torus-echo-fooled", side * side,
          Local.Order_invariant.speedup ~n0:16 Grid.Algorithms.dimension_echo,
          Grid.Problems.dimension_echo ~d:2, tg, `Fixed tids, true );
        ( "torus-dim0-2col", side * side,
          Grid.Algorithms.dim0_two_coloring
            ~base:(Grid.Torus.prod_ids torus).Grid.Torus.base ~side,
          Grid.Problems.dim0_two_coloring ~d:2, tg, `Fixed tids, false );
      ]
    in
    List.iter
      (fun (label, n, algo, problem, g, ids, memo_sound) ->
        let seq = Local.Runner.run ~ids ~domains:1 ~memo:false ~problem algo g in
        bench_json ~workload:label ~n ~memo:false seq ~speedup:None;
        let eng =
          Local.Runner.run ~ids ~domains ~memo:memo_sound ~problem algo g
        in
        let speedup =
          seq.Local.Runner.stats.Local.Runner.simulate_seconds
          /. max 1e-9 eng.Local.Runner.stats.Local.Runner.simulate_seconds
        in
        if eng.Local.Runner.labeling <> seq.Local.Runner.labeling then begin
          Fmt.epr "bench-runner: %s engine labeling diverged@." label;
          exit 1
        end;
        bench_json ~workload:label ~n ~memo:memo_sound eng
          ~speedup:(Some speedup))
      workloads;
    obs_end metrics
  in
  Cmd.v
    (Cmd.info "bench-runner"
       ~doc:
         "Time the simulation engine (sequential vs parallel+memo) and print \
          a JSON line per run")
    Term.(const run $ domains_arg $ cycle_n_arg $ side_arg $ metrics_arg
          $ const ())

(* -- substrate-smoke ---------------------------------------------------- *)

(* Million-node health check of the CSR substrate. Three things only a
   large n exercises: identifier assignment past the old n^3 overflow
   (n >= ~2.1M used to wrap negative), flat-array indexing at offsets
   a boxed representation never reached, and a full classify-verify
   round trip at that scale. CI runs this at the default side under
   LCL_OBS=1; the JSON line is the machine-readable result. *)

let substrate_smoke_cmd =
  let side_arg =
    Arg.(
      value & opt int 1581
      & info [ "side" ]
          ~doc:"Torus side length (default 1581 — just under 2.5M nodes).")
  in
  let run side metrics () =
    obs_begin metrics;
    if side < 3 then begin
      Fmt.epr "substrate-smoke: --side must be >= 3 (got %d)@." side;
      exit 2
    end;
    let t0 = Unix.gettimeofday () in
    let torus =
      Grid.Problems.mark_tag_inputs (Grid.Torus.make [| side; side |])
    in
    let g = Grid.Torus.graph torus in
    let n = Graph.n g in
    let rng = Util.Prng.create ~seed:0xC0FFEE in
    let ids = Graph.Ids.random rng n in
    let ids_ok =
      Array.for_all (fun i -> i > 0) ids && Graph.Ids.all_distinct ids
    in
    if not ids_ok then begin
      Fmt.epr "substrate-smoke: Ids.random broken at n=%d@." n;
      exit 1
    end;
    let pids = Grid.Torus.prod_ids torus in
    let tids = pids.Grid.Torus.packed in
    let echo =
      Local.Runner.run ~ids:(`Fixed tids) ~memo:true
        ~problem:(Grid.Problems.dimension_echo ~d:2)
        Grid.Algorithms.dimension_echo g
    in
    let color =
      Local.Runner.run ~ids:(`Fixed tids)
        ~problem:(Grid.Problems.torus_coloring ~d:2)
        (Grid.Algorithms.torus_coloring ~d:2 ~base:pids.Grid.Torus.base)
        g
    in
    let ev = List.length echo.Local.Runner.violations in
    let cv = List.length color.Local.Runner.violations in
    let es = echo.Local.Runner.stats in
    print_json
      [
        ("bench", String "substrate-smoke"); ("n", Int n);
        ("ids_ok", Bool ids_ok); ("echo_violations", Int ev);
        ("echo_cache_hits", Int es.Local.Runner.cache_hits);
        ("echo_distinct_views", Int es.Local.Runner.distinct_views);
        ("coloring_violations", Int cv);
        ("elapsed_s", rounded 2 (Unix.gettimeofday () -. t0));
      ];
    obs_end metrics;
    if ev <> 0 || cv <> 0 then begin
      Fmt.epr "substrate-smoke: verification failed (echo %d, coloring %d)@."
        ev cv;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "substrate-smoke"
       ~doc:
         "Million-node CSR health check: identifier overflow regression plus \
          a full torus classification round trip")
    Term.(const run $ side_arg $ metrics_arg $ const ())

(* -- serve / client ------------------------------------------------------ *)

(* Daemon-mode signal hygiene:
   - SIGPIPE ignored: a client that disconnects mid-response must
     surface as EPIPE on the write (handled per connection), not kill
     the daemon;
   - SIGCHLD reaps: cluster worker processes are normally reaped
     synchronously by [Util.Cluster.map_ranges], but a worker that
     dies between dispatch cycles must not linger as a zombie
     ([map_ranges] tolerates the resulting ECHILD);
   - SIGINT/SIGTERM request a clean stop: the select loop notices the
     flag within one poll interval and exits through the path that
     flushes and closes the persistent cache. *)
let install_daemon_signals () =
  let stop = ref false in
  if Sys.unix then begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let rec reap_all () =
      match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | 0, _ -> ()
      | _ -> reap_all ()
      | exception Unix.Unix_error ((Unix.ECHILD | Unix.EINTR), _, _) -> ()
    in
    Sys.set_signal Sys.sigchld (Sys.Signal_handle (fun _ -> reap_all ()));
    let request_stop _ = stop := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
  end;
  stop

let socket_arg =
  Arg.(
    value & opt string "lcl_serve.sock"
    & info [ "socket" ] ~doc:"Unix-domain socket path.")

let serve_cmd =
  let cache_arg =
    Arg.(
      value & opt string "lcl_serve.cache"
      & info [ "cache" ]
          ~doc:"Persistent classification cache file (created if absent).")
  in
  let max_pending_arg =
    Arg.(
      value
      & opt int Serve.Daemon.default_config.Serve.Daemon.max_pending
      & info [ "max-pending" ]
          ~doc:
            "Engine-level requests admitted per dispatch cycle; the \
             overflow is shed with a typed overloaded answer.")
  in
  let budget_arg =
    Arg.(
      value & opt (some int) None
      & info [ "default-budget-ms" ]
          ~doc:
            "Deadline budget for requests that carry none; expiry answers \
             deadline-exceeded instead of hanging.")
  in
  let cluster_timeout_arg =
    Arg.(
      value & opt (some int) None
      & info [ "cluster-timeout-ms" ]
          ~doc:
            "Per-worker drain timeout for every computation: a stalled \
             cluster worker is reaped and its range recomputed in-process \
             (default: no timeout).")
  in
  let run socket cache workers max_pending default_budget_ms
      cluster_timeout_ms () =
    let stop = install_daemon_signals () in
    let config =
      {
        Serve.Daemon.default_config with
        Serve.Daemon.max_pending;
        default_budget_ms;
        cluster_timeout_ms;
      }
    in
    let stats =
      Serve.Daemon.serve ~socket_path:socket ~cache_path:cache ?workers
        ~config
        ~should_stop:(fun () -> !stop)
        ~on_ready:(fun () -> Fmt.pr "serving on %s (cache %s)@." socket cache)
        ()
    in
    Fmt.pr
      "served %d requests (%d cache hits, %d misses, %d connections, \
       %d shed, %d degraded, %d deadline-expired)@."
      stats.Serve.Daemon.served stats.Serve.Daemon.hits
      stats.Serve.Daemon.misses stats.Serve.Daemon.connections
      stats.Serve.Daemon.shed stats.Serve.Daemon.degraded
      stats.Serve.Daemon.deadlines
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve classification, simulation and faultsim requests over a \
          Unix-domain socket, batching each dispatch cycle and answering \
          repeated problems from a persistent on-disk cache")
    Term.(
      const run $ socket_arg $ cache_arg $ workers_arg $ max_pending_arg
      $ budget_arg $ cluster_timeout_arg $ const ())

let client_cmd =
  let verb_arg =
    let doc =
      "Request: ping, zoo, stats, health, shutdown, classify, gap, \
       simulate, faultsim."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"VERB" ~doc)
  in
  let problem_opt_arg =
    let doc = "Problem for classify/gap: a zoo name or a file path." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"PROBLEM" ~doc)
  in
  (* problems travel as text: a zoo name passes through, anything else
     is read here so the daemon never touches client paths *)
  let problem_text spec =
    if List.mem_assoc spec zoo_problems then spec
    else
      match In_channel.with_open_text spec In_channel.input_all with
      | text -> text
      | exception Sys_error m ->
        Fmt.epr "error: %s@." m;
        exit 1
  in
  let need_problem verb = function
    | Some spec -> problem_text spec
    | None ->
      Fmt.epr "%s needs a PROBLEM argument@." verb;
      exit 2
  in
  let run socket verb problem_opt n seed algo iterations labels fault_seed
      crash sever retries budget_ms recv_timeout_s request_retries () =
    let req =
      match verb with
      | "ping" -> Serve.Protocol.Ping
      | "zoo" -> Serve.Protocol.Zoo
      | "stats" -> Serve.Protocol.Stats
      | "health" -> Serve.Protocol.Health
      | "shutdown" -> Serve.Protocol.Shutdown
      | "classify" ->
        Serve.Protocol.Classify { problem = need_problem verb problem_opt }
      | "gap" ->
        Serve.Protocol.Gap
          {
            problem = need_problem verb problem_opt;
            iterations;
            max_labels = labels;
          }
      | "simulate" -> Serve.Protocol.Simulate { algo; n; seed }
      | "faultsim" ->
        Serve.Protocol.Faultsim
          { algo; n; seed; fault_seed; crash; sever; retries }
      | other ->
        Fmt.epr "unknown verb %s@." other;
        exit 2
    in
    let retry =
      Util.Backoff.create ~base_ms:20 ~max_ms:500
        ~max_retries:request_retries ~seed:0xC11E47 ()
    in
    let print_text text =
      print_string text;
      if text <> "" && text.[String.length text - 1] <> '\n' then
        print_newline ()
    in
    match
      Serve.Daemon.request ?budget_ms ?recv_timeout_s:recv_timeout_s ~retry
        ~socket_path:socket req
    with
    | Serve.Protocol.Answer text -> print_text text
    | Serve.Protocol.Degraded { text; reason } ->
      Fmt.epr "warning: degraded answer (%s)@." reason;
      print_text text
    | Serve.Protocol.Failed { code; message } ->
      Fmt.epr "error %s: %s@." code message;
      exit 1
    | Serve.Protocol.Deadline_exceeded { budget_ms } ->
      Fmt.epr "error: deadline exceeded (budget %d ms)@." budget_ms;
      exit 3
    | Serve.Protocol.Overloaded { retry_after_ms } ->
      Fmt.epr "error: daemon overloaded (retry after %d ms)@." retry_after_ms;
      exit 4
  in
  let seed_arg =
    Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"Run seed.")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~doc:"Seed for drawing the fault plan.")
  in
  let crash_arg =
    Arg.(value & opt float 0. & info [ "crash" ] ~doc:"Crash fraction.")
  in
  let sever_arg =
    Arg.(value & opt float 0. & info [ "sever" ] ~doc:"Sever fraction.")
  in
  let retries_arg =
    Arg.(value & opt int 0 & info [ "retries" ] ~doc:"Re-attempts.")
  in
  let budget_arg =
    Arg.(
      value & opt (some int) None
      & info [ "budget-ms" ]
          ~doc:
            "Deadline budget carried in the request envelope; expiry \
             answers deadline-exceeded.")
  in
  let recv_timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "recv-timeout" ]
          ~doc:"Give up waiting for the answer after this many seconds.")
  in
  let request_retries_arg =
    Arg.(
      value & opt int 0
      & info [ "request-retries" ]
          ~doc:
            "Reconnect-with-backoff budget for transport failures and \
             overload sheds (default 0 = one attempt).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running lcl_tool serve daemon")
    Term.(
      const run $ socket_arg $ verb_arg $ problem_opt_arg $ n_arg $ seed_arg
      $ algo_arg $ iterations_arg $ labels_arg $ fault_seed_arg $ crash_arg
      $ sever_arg $ retries_arg $ budget_arg $ recv_timeout_arg
      $ request_retries_arg $ const ())

(* -- chaos-soak ---------------------------------------------------------- *)

(* Service-level chaos soak: fork a daemon under a seeded
   [Fault.Service] plan, drive a seeded request mix through it with
   the matching client-side faults, and assert the robustness
   contract — every request terminates with a typed outcome, and warm
   answers stay byte-identical to cold ones.

   The report printed on stdout is STABLE: a pure function of
   (seed, requests, plan spec), identical across repeated runs and
   across worker counts. That is what the serve-chaos CI job diffs.
   Worker-count-sensitive outcomes are folded away: a [Degraded]
   answer counts as answered (its text is byte-identical to the
   healthy one — that is the recovery guarantee), and the digest
   hashes answer texts only. Non-stable detail (daemon counters,
   degraded counts) goes to stderr under [--counters]. *)
let chaos_soak_cmd =
  let seed_arg =
    Arg.(value & opt int 0xC405 & info [ "seed" ] ~doc:"Soak seed.")
  in
  let requests_arg =
    Arg.(
      value & opt int 120
      & info [ "requests" ] ~doc:"Engine-level requests to drive.")
  in
  let rate name doc default =
    Arg.(value & opt float default & info [ name ] ~doc)
  in
  let kill_arg = rate "kill" "Kill-worker fault rate." 0.08 in
  let stall_arg = rate "stall" "Stall-worker fault rate." 0.04 in
  let torn_arg = rate "torn" "Torn-frame client fault rate." 0.05 in
  let drop_arg = rate "drop" "Drop-connection client fault rate." 0.05 in
  let cache_corrupt_arg = rate "cache-corrupt" "Cache corruption rate." 0.02 in
  let disk_full_arg = rate "disk-full" "Full-disk (cache write) rate." 0.03 in
  let max_pending_arg =
    Arg.(
      value & opt int 32
      & info [ "max-pending" ] ~doc:"Daemon admission cap for the soak.")
  in
  let cluster_timeout_arg =
    Arg.(
      value & opt int 500
      & info [ "cluster-timeout-ms" ]
          ~doc:"Worker drain timeout (reaps stalled chaos workers).")
  in
  let counters_arg =
    Arg.(
      value & flag
      & info [ "counters" ]
          ~doc:
            "Also print non-stable daemon counters to stderr (these \
             legitimately differ across worker counts).")
  in
  let run socket seed requests kill stall torn drop cache_corrupt disk_full
      workers max_pending cluster_timeout_ms counters () =
    if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let spec =
      Fault.Service.spec ~kill ~stall ~torn ~drop ~cache_corrupt ~disk_full
        ~ranks:(match workers with Some w -> max 1 w | None -> 4)
        ()
    in
    let plan = Fault.Service.generate ~seed ~requests spec in
    let config =
      {
        Serve.Daemon.default_config with
        Serve.Daemon.max_pending;
        cluster_timeout_ms = Some cluster_timeout_ms;
        chaos = plan;
      }
    in
    (* seeded request mix: cheap, cache-heavy, with a deliberate
       bad-request leg so the F400 path soaks too *)
    let rng = Util.Prng.create ~seed:(seed lxor 0x50AB) in
    let zoo_names =
      [ "3-coloring"; "mis"; "maximal-matching"; "sinkless-orientation";
        "trivial"; "2-coloring" ]
    in
    let draw_request () =
      let pick l = List.nth l (Util.Prng.int rng (List.length l)) in
      match Util.Prng.int rng 100 with
      | r when r < 30 -> Serve.Protocol.Classify { problem = pick zoo_names }
      | r when r < 45 ->
        Serve.Protocol.Gap
          { problem = pick zoo_names; iterations = 3; max_labels = 64 }
      | r when r < 70 ->
        Serve.Protocol.Simulate
          {
            algo = pick [ "cv-coloring"; "mis"; "matching" ];
            n = 16 + (8 * Util.Prng.int rng 8);
            seed = Util.Prng.int rng 4;
          }
      | r when r < 85 ->
        Serve.Protocol.Faultsim
          {
            algo = "cv-coloring";
            n = 32;
            seed = Util.Prng.int rng 4;
            fault_seed = Util.Prng.int rng 4;
            crash = 0.05;
            sever = 0.05;
            retries = 1;
          }
      | r when r < 95 -> Serve.Protocol.Ping
      | _ -> Serve.Protocol.Simulate { algo = "no-such-algo"; n = 64; seed = 0 }
    in
    let mix = List.init requests (fun _ -> draw_request ()) in
    (* the soak proper *)
    let answered = ref 0 and failed = ref 0 and deadline = ref 0 in
    let overloaded = ref 0 and aborted = ref 0 and degraded = ref 0 in
    let transport_failures = ref 0 and internal_failures = ref 0 in
    let recorded : (Serve.Protocol.request * string) list ref = ref [] in
    let digest_buf = Buffer.create 4096 in
    let overload_sent = 2 * max_pending in
    let soak sock =
      (* client-side fault injections *)
      let with_raw_socket f =
        match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
        | fd ->
          (try
             Unix.connect fd (Unix.ADDR_UNIX sock);
             f fd
           with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        | exception Unix.Unix_error _ -> ()
      in
      let send_torn req =
        with_raw_socket (fun fd ->
            let enc = Serve.Protocol.encode_request req in
            let k = min 3 (String.length enc - 1) in
            ignore (Unix.write_substring fd enc 0 k))
      in
      let send_and_drop req =
        with_raw_socket (fun fd ->
            let enc = Serve.Protocol.encode_request req in
            ignore (Unix.write_substring fd enc 0 (String.length enc)))
      in
      List.iteri
        (fun i req ->
          let client_events =
            List.filter Fault.Service.client_side (Fault.Service.at plan i)
          in
          match client_events with
          | Fault.Service.Torn_frame :: _ ->
            send_torn req;
            incr aborted;
            (* let the daemon reap the dead connection before the next
               request so dispatch order stays stable *)
            ignore (Unix.select [] [] [] 0.03)
          | Fault.Service.Drop_connection :: _ ->
            send_and_drop req;
            incr aborted;
            ignore (Unix.select [] [] [] 0.03)
          | _ -> (
            match
              Serve.Daemon.request ~recv_timeout_s:30. ~socket_path:sock req
            with
            | Serve.Protocol.Answer text ->
              incr answered;
              Buffer.add_string digest_buf text;
              recorded := (req, text) :: !recorded
            | Serve.Protocol.Degraded { text; _ } ->
              (* same bytes as the healthy answer: count as answered in
                 the stable report, tally separately for --counters *)
              incr answered;
              incr degraded;
              Buffer.add_string digest_buf text;
              recorded := (req, text) :: !recorded
            | Serve.Protocol.Failed { code; message } ->
              incr failed;
              if code = "F401" then begin
                incr transport_failures;
                Fmt.epr "soak request %d: transport failure: %s@." i message
              end
              else if code = "F403" then begin
                incr internal_failures;
                Fmt.epr "soak request %d: internal failure: %s@." i message
              end
            | Serve.Protocol.Deadline_exceeded _ -> incr deadline
            | Serve.Protocol.Overloaded _ -> incr overloaded))
        mix;
      (* overload leg: one atomic batch write twice the admission cap —
         the tail must shed with typed Overloaded answers *)
      let overload_answers =
        Serve.Daemon.request_batch ~recv_timeout_s:30. ~socket_path:sock
          (List.init overload_sent (fun _ -> Serve.Protocol.Ping))
      in
      let overload_ok =
        List.length
          (List.filter
             (function Serve.Protocol.Answer _ -> true | _ -> false)
             overload_answers)
      in
      let overload_shed =
        List.length
          (List.filter
             (function Serve.Protocol.Overloaded _ -> true | _ -> false)
             overload_answers)
      in
      (* warm replay: every recorded answer must come back byte-identical
         (these ordinals are past the plan, so no chaos fires) *)
      let warm_identical =
        List.for_all
          (fun (req, text) ->
            match
              Serve.Daemon.request ~recv_timeout_s:30. ~socket_path:sock req
            with
            | Serve.Protocol.Answer t | Serve.Protocol.Degraded { text = t; _ }
              ->
              t = text
            | _ -> false)
          (List.rev !recorded)
      in
      let health_ok =
        match
          Serve.Daemon.request ~recv_timeout_s:30. ~socket_path:sock
            Serve.Protocol.Health
        with
        | Serve.Protocol.Answer t -> (
          try Json.member "serve" (Json.of_string t) = Some (String "health")
          with Json.Parse_error _ -> false)
        | _ -> false
      in
      if counters then begin
        (match
           Serve.Daemon.request ~recv_timeout_s:30. ~socket_path:sock
             Serve.Protocol.Stats
         with
        | Serve.Protocol.Answer t -> Fmt.epr "daemon %s" t
        | _ -> ());
        Fmt.epr "client: degraded=%d transport=%d internal=%d@." !degraded
          !transport_failures !internal_failures
      end;
      (overload_ok, overload_shed, warm_identical, health_ok)
    in
    let overload_ok, overload_shed, warm_identical, health_ok =
      let socket_path =
        if socket = "lcl_serve.sock" then None else Some socket
      in
      try Serve.Daemon.with_forked ?socket_path ?workers ~config soak
      with Failure m ->
        Fmt.epr "chaos-soak: %s@." m;
        exit 1
    in
    (* the stable report: diffed verbatim by the serve-chaos CI job *)
    print_json
      [
        ("soak", String "report"); ("seed", Int seed);
        ("requests", Int requests);
        ( "plan",
          Obj
            (List.map
               (fun (k, c) -> (k, Json.Int c))
               (Fault.Service.counts plan)) );
        ( "outcomes",
          Obj
            [
              ("answered", Int !answered); ("failed", Int !failed);
              ("deadline", Int !deadline); ("overloaded", Int !overloaded);
              ("client_aborted", Int !aborted);
            ] );
        ( "overload",
          Obj
            [ ("sent", Int overload_sent); ("answered", Int overload_ok);
              ("shed", Int overload_shed) ] );
        ( "digest",
          String (Digest.to_hex (Digest.string (Buffer.contents digest_buf))) );
        ("warm_identical", Bool warm_identical); ("health_ok", Bool health_ok);
        ("all_typed", Bool true);
      ];
    if
      !transport_failures > 0 || !internal_failures > 0 || not warm_identical
      || not health_ok
      || overload_ok + overload_shed <> overload_sent
    then begin
      Fmt.epr
        "chaos-soak FAILED: transport=%d internal=%d warm_identical=%b \
         health_ok=%b overload %d+%d/%d@."
        !transport_failures !internal_failures warm_identical health_ok
        overload_ok overload_shed overload_sent;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos-soak"
       ~doc:
         "Soak a forked serve daemon under a seeded service-level fault \
          plan (worker kills and stalls, torn frames, dropped connections, \
          cache corruption, full disk) and assert that every request \
          terminates with a typed outcome and warm answers stay \
          byte-identical; prints a stable, diffable report")
    Term.(
      const run $ socket_arg $ seed_arg $ requests_arg $ kill_arg $ stall_arg
      $ torn_arg $ drop_arg $ cache_corrupt_arg $ disk_full_arg $ workers_arg
      $ max_pending_arg $ cluster_timeout_arg $ counters_arg $ const ())

(* -- fuzz ---------------------------------------------------------------- *)

(* Differential fuzzing: seeded random (problem, graph) cases, each
   executed through every engine configuration by [Fuzz.Oracle], with
   byte-identical observables demanded across all of them. Divergent
   cases are minimized by [Fuzz.Shrink] and emitted as replayable
   [Fuzz.Repro] files.

   The report printed on stdout is STABLE: a pure function of (seed,
   cases), with no wall times and every leg pinned to explicit
   domain/worker counts — identical across repeated runs and across
   LCL_DOMAINS/LCL_WORKERS settings. That is what the fuzz CI job
   diffs. [--budget-s] can truncate the case list early; the two runs
   being diffed must then use the same effective case count (CI runs
   without a budget). *)
let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 0xF022 & info [ "seed" ] ~doc:"Fuzz seed.")
  in
  let cases_arg =
    Arg.(
      value & opt int 50
      & info [ "cases" ] ~doc:"Number of (problem, graph) cases to run.")
  in
  let budget_arg =
    Arg.(
      value & opt float 0.
      & info [ "budget-s" ]
          ~doc:
            "Wall-clock budget in seconds; 0 = unlimited. Exhausting it \
             stops cleanly after the current case (noted on stderr, never \
             in the stable report).")
  in
  let no_serve_arg =
    Arg.(
      value & flag
      & info [ "no-serve" ]
          ~doc:"Skip the forked-daemon leg (matrix legs only).")
  in
  let inject_break_arg =
    Arg.(
      value & opt (some string) None
      & info [ "inject-break" ]
          ~doc:
            "Test-only divergence hook: perturb the named configuration's \
             labeling after it computes, so every case diverges and the \
             shrink/repro/replay machinery is exercised end to end.")
  in
  let repro_dir_arg =
    Arg.(
      value & opt string "fuzz-repros"
      & info [ "repro-dir" ]
          ~doc:"Directory minimized repro files are written to.")
  in
  let replay_arg =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ]
          ~doc:
            "Replay a repro file instead of fuzzing: exit 1 if its \
             divergence reproduces, 0 if it no longer does, 2 if the file \
             is malformed.")
  in
  let case_seed seed index = seed + (1_000_003 * index) in
  let replay_run path =
    match Fuzz.Repro.load ~path with
    | Error m ->
      Fmt.epr "fuzz: bad repro %s: %s@." path m;
      exit 2
    | Ok r -> (
      match Fuzz.Repro.replay r with
      | Error m ->
        Fmt.epr "fuzz: bad repro %s: %s@." path m;
        exit 2
      | Ok reproduces ->
        print_json
          [
            ("fuzz", String "replay");
            ("repro", String (Filename.basename path));
            ( "configs",
              List [ String r.Fuzz.Repro.config_a; String r.config_b ] );
            ("reproduces", Bool reproduces);
          ];
        if reproduces then exit 1)
  in
  let max_repros = 5 in
  let run seed cases budget_s no_serve inject_break repro_dir replay () =
    if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    match replay with
    | Some path -> replay_run path
    | None ->
      (match inject_break with
      | Some c when not (List.mem c Fuzz.Oracle.configs) ->
        Fmt.epr "fuzz: --inject-break %s is not one of %s@." c
          (String.concat ", " Fuzz.Oracle.configs);
        exit 2
      | _ -> ());
      let sweep serve =
        let started = Unix.gettimeofday () in
        let digest_buf = Buffer.create 4096 in
        let divergent = ref 0 in
        let repros = ref [] in
        let ran = ref 0 in
        (try
           for index = 0 to cases - 1 do
             if budget_s > 0. && Unix.gettimeofday () -. started > budget_s
             then begin
               Fmt.epr "fuzz: budget exhausted after %d cases@." !ran;
               raise Exit
             end;
             let case = Fuzz.Gen.case ~seed ~index in
             let ids_seed = case_seed seed index in
             let result =
               Fuzz.Oracle.run_case ~seed:ids_seed ?serve
                 ?break_config:inject_break ~case_index:index
                 case.Fuzz.Gen.problem case.Fuzz.Gen.spec
             in
             let line = Fuzz.Oracle.result_to_json result in
             print_endline line;
             Buffer.add_string digest_buf line;
             Buffer.add_char digest_buf '\n';
             if result.Fuzz.Oracle.divergences <> [] then begin
               incr divergent;
               (* minimize and persist the first matrix-leg divergence
                  (serve-leg divergences are reported but have no
                  two-config replay) *)
               match
                 List.find_opt
                   (fun d ->
                     List.mem d.Fuzz.Oracle.config_a Fuzz.Oracle.configs
                     && List.mem d.Fuzz.Oracle.config_b Fuzz.Oracle.configs)
                   result.Fuzz.Oracle.divergences
               with
               | Some d when List.length !repros < max_repros ->
                 let m =
                   Fuzz.Shrink.minimize ~seed:ids_seed
                     ?break_config:inject_break
                     ~config_a:d.Fuzz.Oracle.config_a
                     ~config_b:d.Fuzz.Oracle.config_b case.Fuzz.Gen.problem
                     case.Fuzz.Gen.spec
                 in
                 (try Unix.mkdir repro_dir 0o755
                  with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
                 let path =
                   Filename.concat repro_dir
                     (Printf.sprintf "case-%d.lclfuzz" index)
                 in
                 Fuzz.Repro.save ~path
                   {
                     Fuzz.Repro.seed = ids_seed;
                     case_index = index;
                     spec = m.Fuzz.Shrink.spec;
                     config_a = d.Fuzz.Oracle.config_a;
                     config_b = d.Fuzz.Oracle.config_b;
                     break_config = inject_break;
                     source = Lcl.Parse.to_string m.Fuzz.Shrink.problem;
                   };
                 repros := path :: !repros;
                 Fmt.epr
                   "fuzz: case %d diverged (%s vs %s); minimized repro \
                    (%d steps) -> %s@."
                   index d.Fuzz.Oracle.config_a d.Fuzz.Oracle.config_b
                   m.Fuzz.Shrink.steps path
               | _ -> ()
             end;
             incr ran
           done
         with Exit -> ());
        print_json
          [
            ("fuzz", String "report"); ("seed", Int seed);
            ("cases", Int !ran); ("divergent", Int !divergent);
            ( "configs",
              List (List.map (fun c -> Json.String c) Fuzz.Oracle.configs) );
            ("serve", Bool (serve <> None));
            ( "digest",
              String
                (Digest.to_hex (Digest.string (Buffer.contents digest_buf)))
            );
          ];
        if !divergent > 0 then
          Fmt.epr "fuzz FAILED: %d/%d cases divergent, %d repro(s) in %s@."
            !divergent !ran (List.length !repros) repro_dir;
        !divergent = 0
      in
      let clean =
        if no_serve then sweep None
        else
          try
            Serve.Daemon.with_forked ~workers:1 (fun sock -> sweep (Some sock))
          with Failure m ->
            Fmt.epr "fuzz: %s@." m;
            exit 2
      in
      if not clean then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: run seeded random (problem, graph) cases \
          through every engine configuration — sequential, multi-domain, \
          multi-process, memoized re-run, resilient under the empty plan, \
          and a forked serve daemon — and demand byte-identical labelings, \
          violations and classifications; divergences are minimized into \
          replayable repro files and the run exits non-zero")
    Term.(
      const run $ seed_arg $ cases_arg $ budget_arg $ no_serve_arg
      $ inject_break_arg $ repro_dir_arg $ replay_arg $ const ())

let main =
  Cmd.group
    (Cmd.info "lcl_tool" ~version:"1.0"
       ~doc:"LCL landscape toolkit (PODC 2022 reproduction)")
    [ show_cmd; zoo_cmd; classify_cmd; gap_cmd; eliminate_cmd; simulate_cmd;
      volume_cmd; lint_cmd; sanitize_cmd; faultsim_cmd; bench_runner_cmd;
      substrate_smoke_cmd; trace_cmd; serve_cmd; client_cmd; chaos_soak_cmd;
      fuzz_cmd ]

let () = exit (Cmd.eval main)
