(* The differential oracle matrix. See oracle.mli. *)

let configs = [ "seq"; "domains4"; "workers3"; "memo"; "resilient" ]

(* -- the workload --------------------------------------------------------- *)

(* Output at a node = pure function of the canonical fingerprint of
   its radius-1 view. [Graph.Ball.fingerprint] is the order-type
   normalized key with randomness erased — exactly the memo's
   soundness condition — and MD5 keeps the mapping stable across
   processes and OCaml versions (Hashtbl.hash would work today but
   pins us to one runtime's polymorphic hash). *)
let view_hash_algo problem =
  let k = Lcl.Alphabet.size (Lcl.Problem.sigma_out problem) in
  {
    Local.Algorithm.name = "fuzz-view-hash";
    radius = (fun ~n:_ -> 1);
    run =
      (fun ball ->
        let d = Digest.string (Graph.Ball.fingerprint ball) in
        let h =
          Char.code d.[0] lor (Char.code d.[1] lsl 8)
          lor (Char.code d.[2] lsl 16)
        in
        let deg = ball.Graph.Ball.degree.(0) in
        Array.init deg (fun p -> (h + (31 * p)) mod k));
  }

(* -- subprocess isolation ------------------------------------------------- *)

(* The multi-domain leg must not poison the calling process: the OCaml
   5 runtime refuses [fork] forever after the first in-process domain
   spawn, and the fuzz loop needs forking for the cluster leg and the
   serve daemon of every later case. So domains spawn in a child — or,
   when the fork is refused ([Failure] once a domain exists here
   already), in this process. *)
let in_subprocess f =
  let rd, wr = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | exception (Unix.Unix_error _ | Failure _) ->
    Unix.close rd;
    Unix.close wr;
    f ()
  | 0 ->
    Unix.close rd;
    let res =
      match f () with
      | v -> Ok v
      | exception e -> Error (Printexc.to_string e)
    in
    (try Util.Framing.write_frame wr (Marshal.to_string res [])
     with _ -> ());
    (try Unix.close wr with Unix.Unix_error _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let frame =
      match Util.Framing.read_frame rd with
      | f -> f
      | exception Util.Framing.Corrupt _ -> None
    in
    Unix.close rd;
    (try ignore (Unix.waitpid [] pid)
     with Unix.Unix_error ((Unix.ECHILD | Unix.EINTR), _, _) -> ());
    (match frame with
    | Some s -> (
      match (Marshal.from_string s 0 : ('a, string) result) with
      | Ok v -> v
      | Error m -> failwith ("fuzz subprocess: " ^ m))
    | None ->
      (* the child died without answering; recompute here — same
         determinism, one recovery *)
      f ())

(* -- observations --------------------------------------------------------- *)

(* What one leg exposes for comparison. [note] carries a
   leg-internal assertion failure (memo stats, resilient statuses)
   that has no counterpart in the reference. *)
type obs = {
  labeling : int array array;
  viols : string;
  radius : int;
  balls : int;
  note : string option;
}

let viols_string vs =
  String.concat ";"
    (List.map
       (function
         | Lcl.Verify.Bad_node v -> Printf.sprintf "n%d" v
         | Lcl.Verify.Bad_edge (v, p) -> Printf.sprintf "e%d.%d" v p
         | Lcl.Verify.Bad_g (v, p) -> Printf.sprintf "g%d.%d" v p)
       vs)

let labeling_digest labeling =
  let b = Buffer.create 256 in
  Array.iter
    (fun row ->
      Array.iter (fun l -> Buffer.add_string b (string_of_int l ^ ",")) row;
      Buffer.add_char b ';')
    labeling;
  Digest.to_hex (Digest.string (Buffer.contents b))

let of_outcome (o : Local.Runner.outcome) note =
  {
    labeling = o.Local.Runner.labeling;
    viols = viols_string o.Local.Runner.violations;
    radius = o.Local.Runner.radius_used;
    balls = o.Local.Runner.stats.Local.Runner.balls_extracted;
    note;
  }

(* Deterministic test-only perturbation: bump the first port label of
   the first labeled node. Leaves a problem with one output label
   unperturbed — the shrinker must not shrink past divergence. *)
let perturb ~k obs =
  if k < 2 then obs
  else
    let labeling = Array.map Array.copy obs.labeling in
    let rec go v =
      if v >= Array.length labeling then ()
      else if Array.length labeling.(v) > 0 then
        labeling.(v).(0) <- (labeling.(v).(0) + 1) mod k
      else go (v + 1)
    in
    go 0;
    { obs with labeling }

(* -- legs ----------------------------------------------------------------- *)

let run_leg ~seed ~problem ~algo g name =
  match name with
  | "seq" ->
    of_outcome
      (Local.Runner.run ~seed ~domains:1 ~workers:1 ~memo:false ~problem algo
         g)
      None
  | "domains4" ->
    in_subprocess (fun () ->
        of_outcome
          (Local.Runner.run ~seed ~domains:4 ~workers:1 ~memo:false ~problem
             algo g)
          None)
  | "workers3" ->
    of_outcome
      (Local.Runner.run ~seed ~domains:1 ~workers:3 ~memo:false ~problem algo
         g)
      None
  | "memo" ->
    let cache = Local.Runner.memo_cache () in
    let first =
      Local.Runner.run ~seed ~domains:1 ~workers:1 ~cache ~problem algo g
    in
    let second =
      Local.Runner.run ~seed ~domains:1 ~workers:1 ~cache ~problem algo g
    in
    let s = second.Local.Runner.stats in
    let note =
      if first.Local.Runner.labeling <> second.Local.Runner.labeling then
        Some "memoized re-run labeling differs from cold memo run"
      else if s.Local.Runner.cache_hits <> s.Local.Runner.balls_extracted then
        Some
          (Printf.sprintf "memoized re-run invoked the algorithm: %d hits, %d balls"
             s.Local.Runner.cache_hits s.Local.Runner.balls_extracted)
      else if s.Local.Runner.distinct_views <> 0 then
        Some
          (Printf.sprintf "memoized re-run grew the cache by %d views"
             s.Local.Runner.distinct_views)
      else None
    in
    of_outcome second note
  | "resilient" -> (
    (* the record policy under the empty plan: same core as [seq],
       so anything but all-Ok statuses and [seq]'s outcome is a bug *)
    match
      Local.Runner.run_resilient ~seed ~domains:1 ~workers:1
        ~plan:Fault.Plan.empty ~problem algo g
    with
    | Error e ->
      {
        labeling = [||];
        viols = "";
        radius = 0;
        balls = 0;
        note = Some ("resilient run errored: " ^ Fault.Error.to_string e);
      }
    | Ok o ->
      let bad_status =
        Array.exists
          (function Fault.Ok -> false | _ -> true)
          o.Local.Runner.report.Local.Runner.statuses
      in
      {
        labeling = o.Local.Runner.partial;
        viols = viols_string o.Local.Runner.healthy_violations;
        radius = o.Local.Runner.r_radius_used;
        balls = o.Local.Runner.r_stats.Local.Runner.balls_extracted;
        note =
          (if bad_status then
             Some "empty-plan resilient run reported a non-Ok node"
           else None);
      })
  | other -> invalid_arg ("unknown fuzz config " ^ other)

(* -- the matrix ----------------------------------------------------------- *)

type divergence = { config_a : string; config_b : string; detail : string }

type result = {
  case_index : int;
  graph : string;
  n : int;
  problem_delta : int;
  source_digest : string;
  label_digest : string;
  violations : int;
  radius : int;
  classify_digest : string;
  configs_run : string list;
  divergences : divergence list;
}

let compare_obs ~config_a ~config_b (a : obs) (b : obs) =
  let d detail = Some { config_a; config_b; detail } in
  match b.note with
  | Some detail -> d detail
  | None ->
    if a.labeling <> b.labeling then d "labeling differs"
    else if a.viols <> b.viols then d "violations differ"
    else if a.radius <> b.radius then d "radius differs"
    else if a.balls <> b.balls then d "balls_extracted differs"
    else None

(* Classification budgets for fuzzing. The engine's [Classify]
   defaults (3 iterations, 200 labels) cost seconds per random delta-3
   problem — fine for one CLI call, three orders of magnitude too slow
   for a fuzz loop. The gap pipeline is bounded the same way at any
   budget, so the determinism assertion is just as strong with small
   ones; and the [Gap] wire request carries these budgets explicitly,
   which is why the serve leg uses it rather than [Classify]. *)
let fuzz_iterations = 1

let fuzz_max_labels = 24

let classify_text source =
  match Lcl.Parse.of_string source with
  | exception Lcl.Parse.Parse_error { message; line } ->
    (* generated sources always parse — a failure here is itself
       divergence-worthy; surface it as the answer text *)
    "classify failed: " ^ Lcl.Parse.error_to_string ~message ~line
  | p ->
    Classify.Landscape.to_json
      (Classify.Landscape.classify ~max_iterations:fuzz_iterations
         ~max_labels:fuzz_max_labels p)
    ^ "\n"

let serve_legs ~socket ~source =
  let gap =
    Serve.Protocol.Gap
      {
        problem = source;
        iterations = fuzz_iterations;
        max_labels = fuzz_max_labels;
      }
  in
  let direct =
    match Serve.Engine.answer gap with
    | Serve.Protocol.Answer text -> text
    | r -> "gap failed: " ^ Serve.Protocol.response_label r
  in
  let ask () =
    match Serve.Daemon.request ~recv_timeout_s:60. ~socket_path:socket gap with
    | Serve.Protocol.Answer text | Serve.Protocol.Degraded { text; _ } -> text
    | r -> "serve failed: " ^ Serve.Protocol.response_label r
  in
  let cold = ask () in
  let warm = ask () in
  let divs = ref [] in
  if cold <> direct then
    divs :=
      { config_a = "seq"; config_b = "serve";
        detail = "cold daemon gap answer differs from direct engine answer" }
      :: !divs;
  if warm <> cold then
    divs :=
      { config_a = "serve"; config_b = "serve-warm";
        detail = "warm daemon gap answer differs from cold (cache drift)" }
      :: !divs;
  divs := List.rev !divs;
  !divs

let run_case ?(seed = 0xF022) ?serve ?break_config ?only ~case_index problem
    spec =
  let g = Gen.spec_to_graph spec in
  let algo = view_hash_algo problem in
  let k = Lcl.Alphabet.size (Lcl.Problem.sigma_out problem) in
  let source = Lcl.Parse.to_string problem in
  let wanted =
    match only with
    | None -> configs
    | Some names -> List.filter (fun c -> c = "seq" || List.mem c names) configs
  in
  let observe name =
    let o = run_leg ~seed ~problem ~algo g name in
    if break_config = Some name then perturb ~k o else o
  in
  let reference = observe "seq" in
  let divergences =
    List.concat_map
      (fun name ->
        if name = "seq" then []
        else
          match
            compare_obs ~config_a:"seq" ~config_b:name reference (observe name)
          with
          | Some d -> [ d ]
          | None -> [])
      wanted
  in
  let serve_divs =
    match serve with
    | Some socket when only = None -> serve_legs ~socket ~source
    | _ -> []
  in
  {
    case_index;
    graph = Gen.spec_to_string spec;
    n = Graph.n g;
    problem_delta = Lcl.Problem.delta problem;
    source_digest = Digest.to_hex (Digest.string source);
    label_digest = labeling_digest reference.labeling;
    violations =
      (if reference.viols = "" then 0
       else
         1
         + String.fold_left
             (fun acc c -> if c = ';' then acc + 1 else acc)
             0 reference.viols);
    radius = reference.radius;
    classify_digest = Digest.to_hex (Digest.string (classify_text source));
    configs_run = (wanted @ if serve <> None && only = None then [ "serve" ] else []);
    divergences = divergences @ serve_divs;
  }

let diverges ?(seed = 0xF022) ?break_config ~config_a ~config_b problem spec =
  let g = Gen.spec_to_graph spec in
  let algo = view_hash_algo problem in
  let k = Lcl.Alphabet.size (Lcl.Problem.sigma_out problem) in
  let observe name =
    let o = run_leg ~seed ~problem ~algo g name in
    if break_config = Some name then perturb ~k o else o
  in
  compare_obs ~config_a ~config_b (observe config_a) (observe config_b)
  <> None

(* -- report --------------------------------------------------------------- *)

let result_to_json r =
  let divergence d =
    Json.Obj
      [ ("a", String d.config_a); ("b", String d.config_b);
        ("detail", String d.detail) ]
  in
  Json.to_string
    (Obj
       [
         ("fuzz", String "case"); ("index", Int r.case_index);
         ("graph", String r.graph); ("n", Int r.n);
         ("delta", Int r.problem_delta); ("problem", String r.source_digest);
         ("labels", String r.label_digest); ("violations", Int r.violations);
         ("radius", Int r.radius); ("classify", String r.classify_digest);
         ("configs", List (List.map (fun c -> Json.String c) r.configs_run));
         ("divergences", List (List.map divergence r.divergences));
       ])
