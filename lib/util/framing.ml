(* Length-prefixed framing over byte streams. One format for three
   transports — cluster socketpairs, the serve Unix-domain socket, and
   the on-disk classification cache — so the torn-read decoder below
   is exercised by all of them and tested once.

   Header: 4-byte little-endian payload length. 4 bytes, not 8: a
   single frame over 1 GiB has no legitimate producer here, and a
   short header keeps the cache file compact (two frames per record). *)

let header_bytes = 4
let max_payload = 1 lsl 30

exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some (Printf.sprintf "Framing.Corrupt: %s" msg)
    | _ -> None)

let check_len len =
  if len < 0 || len > max_payload then
    raise (Corrupt (Printf.sprintf "frame length %d out of range" len))

let encode payload =
  let len = String.length payload in
  check_len len;
  let b = Bytes.create (header_bytes + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.unsafe_to_string b

(* Incremental decoder: a growable byte buffer plus a read cursor.
   Consumed bytes are compacted away only when the cursor passes half
   the buffer, so feeding many small chunks stays amortized O(bytes). *)
type decoder = {
  mutable buf : Bytes.t;
  mutable start : int;   (* first unconsumed byte *)
  mutable fill : int;    (* bytes valid in [buf] *)
}

let decoder () = { buf = Bytes.create 256; start = 0; fill = 0 }

let pending d = d.fill - d.start

let compact d =
  if d.start > 0 then begin
    Bytes.blit d.buf d.start d.buf 0 (d.fill - d.start);
    d.fill <- d.fill - d.start;
    d.start <- 0
  end

let feed d s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Framing.feed";
  if d.fill + len > Bytes.length d.buf then begin
    compact d;
    if d.fill + len > Bytes.length d.buf then begin
      let cap = ref (Bytes.length d.buf) in
      while d.fill + len > !cap do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit d.buf 0 nb 0 d.fill;
      d.buf <- nb
    end
  end;
  Bytes.blit_string s pos d.buf d.fill len;
  d.fill <- d.fill + len;
  (* validate any complete header eagerly so a poisoned stream is
     rejected at feed time, before the payload is buffered *)
  if pending d >= header_bytes then
    check_len (Int32.to_int (Bytes.get_int32_le d.buf d.start))

let next d =
  if pending d < header_bytes then None
  else begin
    let len = Int32.to_int (Bytes.get_int32_le d.buf d.start) in
    check_len len;
    if pending d < header_bytes + len then None
    else begin
      let payload = Bytes.sub_string d.buf (d.start + header_bytes) len in
      d.start <- d.start + header_bytes + len;
      if d.start > Bytes.length d.buf / 2 then compact d;
      Some payload
    end
  end

(* -- blocking fd transport ---------------------------------------------- *)

let rec write_all fd b pos len =
  if len > 0 then begin
    let k = try Unix.write fd b pos len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd b (pos + k) (len - k)
  end

let write_frame fd payload =
  let frame = encode payload in
  let b = Bytes.unsafe_of_string frame in
  write_all fd b 0 (Bytes.length b)

(* [exactly] distinguishes "EOF before any byte" (a worker that exited
   without answering — the recovery path) from "EOF mid-frame" (a torn
   stream — corrupt). A signal that interrupts the read is neither: the
   read is retried. *)
let read_exactly fd b pos len =
  let rec go got =
    if got = len then got
    else
      match Unix.read fd b (pos + got) (len - got) with
      | 0 -> got
      | k -> go (got + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go got
  in
  go 0

let read_frame fd =
  let hdr = Bytes.create header_bytes in
  match read_exactly fd hdr 0 header_bytes with
  | 0 -> None
  | k when k < header_bytes -> raise (Corrupt "EOF inside frame header")
  | _ ->
    let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
    check_len len;
    let payload = Bytes.create len in
    if read_exactly fd payload 0 len < len then
      raise (Corrupt "EOF inside frame payload");
    Some (Bytes.unsafe_to_string payload)
