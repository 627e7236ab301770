(* Diagnostics with stable codes, severities and source spans — the
   common output of the problem linter and the algorithm sanitizer.
   Codes are namespaced: L1xx structural problem lints, L2xx
   cross-checks against the relim/classify machinery, Sxxx sanitizer
   findings (see the table in DESIGN.md). *)

type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  message : string;
  file : string option;
  line : int option;
}

let v ?file ?line severity ~code message =
  { code; severity; message; file; line }

let f ?file ?line severity ~code fmt =
  Printf.ksprintf (fun message -> v ?file ?line severity ~code message) fmt

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    (* position-less findings (whole-file) lead *)
    let line d = Option.value ~default:0 d.line in
    let c = compare (line a) (line b) in
    if c <> 0 then c
    else
      let c = compare (severity_rank a.severity) (severity_rank b.severity) in
      if c <> 0 then c
      else Stdlib.compare (a.code, a.message) (b.code, b.message)

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

(* Bridge from the fault subsystem: an F-coded runtime error becomes
   an error diagnostic under the same stable code, with its node /
   chunk context folded into the message (diagnostics carry file:line
   positions, not graph coordinates). *)
let of_fault_error ?file (e : Fault.Error.t) =
  let context =
    String.concat ""
      [
        (match e.Fault.Error.node with
        | Some v -> Printf.sprintf " (node %d)" v
        | None -> "");
        (match e.Fault.Error.range with
        | Some (lo, hi) -> Printf.sprintf " (chunk [%d,%d))" lo hi
        | None -> "");
      ]
  in
  v ?file Error ~code:e.Fault.Error.code (e.Fault.Error.message ^ context)

let pp ppf d =
  (match (d.file, d.line) with
  | Some f, Some l -> Fmt.pf ppf "%s:%d: " f l
  | Some f, None -> Fmt.pf ppf "%s: " f
  | None, Some l -> Fmt.pf ppf "line %d: " l
  | None, None -> ());
  Fmt.pf ppf "%s[%s]: %s" (severity_string d.severity) d.code d.message

let to_string d = Fmt.str "%a" pp d

(* -- JSON --------------------------------------------------------------- *)

let json d =
  Json.Obj
    [
      ("code", String d.code);
      ("severity", String (severity_string d.severity));
      ("message", String d.message);
      ("file", match d.file with Some f -> String f | None -> Null);
      ("line", match d.line with Some l -> Int l | None -> Null);
    ]

let to_json d = Json.to_string (json d)

let list_to_json ds =
  Json.to_string
    (Obj
       [
         ("diagnostics", List (List.map json ds));
         ("errors", Int (count Error ds)); ("warnings", Int (count Warning ds));
         ("infos", Int (count Info ds));
       ])
