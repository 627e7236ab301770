(* Minimal JSON tree: the one codec behind every JSON document the
   repo prints (fault plans and reports, landscape certificates, lint
   diagnostics, traces, fuzz and soak reports, daemon stats) and the
   parser that reads plans and reports back. A library of its own with
   no dependencies, so even [Obs] at the bottom of the stack can render
   through it; the repo deliberately has no external JSON dependency
   (see DESIGN.md).

   Supported: null, booleans, integers, floats, strings (with the
   standard escapes), arrays, objects. Integers outside the JSON-safe
   range are not special-cased — documents carry node indices, counts
   and hex-string-encoded 64-bit masks. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* -- printing ---------------------------------------------------------- *)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The shortest of %.15g/%.16g/%.17g that reads back exactly, marked
   as a float (a '.' or an exponent) so it never reads back as [Int]. *)
let float_text x =
  let s =
    List.find
      (fun s -> float_of_string s = x)
      (List.map (fun p -> Printf.sprintf "%.*g" p x) [ 15; 16; 17 ])
  in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float x when not (Float.is_finite x) -> Buffer.add_string b "null"
  | Float x -> Buffer.add_string b (float_text x)
  | String s -> escape b s
  | List items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write b v)
      items;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape b k;
        Buffer.add_char b ':';
        write b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* -- parsing ----------------------------------------------------------- *)

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.text
    && match c.text.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail "expected '%c' at offset %d, found '%c'" ch c.pos x
  | None -> fail "expected '%c' at offset %d, found end of input" ch c.pos

let literal c word value =
  let len = String.length word in
  if
    c.pos + len <= String.length c.text
    && String.sub c.text c.pos len = word
  then begin
    c.pos <- c.pos + len;
    value
  end
  else fail "invalid literal at offset %d" c.pos

(* The four hex digits of a \u escape starting at [at]; exactly four,
   nothing else ([int_of_string] would also take '_' and a sign). *)
let hex4 c at =
  if at + 4 > String.length c.text then
    fail "truncated \\u escape at offset %d" at;
  let digit i =
    match c.text.[at + i] with
    | '0' .. '9' as ch -> Char.code ch - Char.code '0'
    | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
    | _ -> fail "invalid \\u escape at offset %d" at
  in
  (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3

let parse_string_body c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string at offset %d" c.pos
    | Some '"' ->
      c.pos <- c.pos + 1;
      Buffer.contents b
    | Some '\\' ->
      c.pos <- c.pos + 1;
      (match peek c with
      | Some '"' -> Buffer.add_char b '"'
      | Some '\\' -> Buffer.add_char b '\\'
      | Some '/' -> Buffer.add_char b '/'
      | Some 'n' -> Buffer.add_char b '\n'
      | Some 't' -> Buffer.add_char b '\t'
      | Some 'r' -> Buffer.add_char b '\r'
      | Some 'b' -> Buffer.add_char b '\b'
      | Some 'f' -> Buffer.add_char b '\012'
      | Some 'u' ->
        let hi = hex4 c (c.pos + 1) in
        c.pos <- c.pos + 4;
        let code =
          if hi land 0xFC00 = 0xD800 then begin
            (* a high surrogate must be followed by a low one *)
            let lo =
              if
                c.pos + 2 < String.length c.text
                && c.text.[c.pos + 1] = '\\'
                && c.text.[c.pos + 2] = 'u'
              then hex4 c (c.pos + 3)
              else -1
            in
            if lo land 0xFC00 <> 0xDC00 then
              fail "lone surrogate \\u%04x at offset %d" hi c.pos;
            c.pos <- c.pos + 6;
            0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
          end
          else if hi land 0xFC00 = 0xDC00 then
            fail "lone surrogate \\u%04x at offset %d" hi c.pos
          else hi
        in
        Buffer.add_utf_8_uchar b (Uchar.of_int code)
      | _ -> fail "invalid escape at offset %d" c.pos);
      c.pos <- c.pos + 1;
      go ()
    | Some ch ->
      Buffer.add_char b ch;
      c.pos <- c.pos + 1;
      go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    c.pos < String.length c.text && is_num_char c.text.[c.pos]
  do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.text start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with
    | Some x -> Float x
    | None -> fail "invalid number %S at offset %d" s start)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input at offset %d" c.pos
  | Some '{' ->
    expect c '{';
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          fields ((k, v) :: acc)
        | Some '}' ->
          c.pos <- c.pos + 1;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}' at offset %d" c.pos
      in
      fields []
    end
  | Some '[' ->
    expect c '[';
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          items (v :: acc)
        | Some ']' ->
          c.pos <- c.pos + 1;
          List (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']' at offset %d" c.pos
      in
      items []
    end
  | Some '"' -> String (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let of_string text =
  let c = { text; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length text then
    fail "trailing input at offset %d" c.pos;
  v

(* -- accessors --------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None

let get_int ~ctx v =
  match to_int v with
  | Some i -> i
  | None -> fail "%s: expected an integer" ctx

let get_str ~ctx v =
  match to_str v with
  | Some s -> s
  | None -> fail "%s: expected a string" ctx

let get_list ~ctx v =
  match to_list v with
  | Some l -> l
  | None -> fail "%s: expected an array" ctx

(** Field [key] of an object, defaulting to [Null] when absent. *)
let field key v = Option.value (member key v) ~default:Null
