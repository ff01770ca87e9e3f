let format_version = 1
let magic_tag = "WJNL"
let record_marker = 0xA7
let checksum_len = 8

(* A record payload is two length-prefixed strings plus a status byte;
   anything beyond a few MB is certainly corruption, and bounding it
   keeps a bit-flipped length from driving a giant allocation. *)
let max_payload = 1 lsl 20

type status = Done | Quarantined

type entry = { key : string; status : status; detail : string }

type t = { jpath : string; mutable fd : Unix.file_descr option }

type recovery = {
  entries : entry list;
  dropped_bytes : int;
  corrupt_tail : bool;
}

let entry_equal a b = a = b

let checksum payload =
  String.sub (Digest.bytes payload) 0 checksum_len

let status_code = function Done -> 0 | Quarantined -> 1

let status_of_code ~offset = function
  | 0 -> Done
  | 1 -> Quarantined
  | c ->
      Whisper_error.raise_error ~offset Whisper_error.Journal
        (Whisper_error.Out_of_range (Printf.sprintf "record status %d" c))

let encode_header ~manifest_id =
  let w = Binio.Writer.create ~capacity:64 () in
  Binio.Writer.magic w magic_tag;
  Binio.Writer.varint w format_version;
  Binio.Writer.string w manifest_id;
  Binio.Writer.contents w

let encode_payload e =
  let w = Binio.Writer.create ~capacity:128 () in
  Binio.Writer.varint w (status_code e.status);
  Binio.Writer.string w e.key;
  Binio.Writer.string w e.detail;
  Binio.Writer.contents w

let encode_entry e =
  let payload = encode_payload e in
  let w = Binio.Writer.create ~capacity:(Bytes.length payload + 16) () in
  Binio.Writer.byte w record_marker;
  Binio.Writer.varint w (Bytes.length payload);
  let out = Buffer.create (Bytes.length payload + 16) in
  Buffer.add_bytes out (Binio.Writer.contents w);
  Buffer.add_bytes out payload;
  Buffer.add_string out (checksum payload);
  Buffer.to_bytes out

(* Decode the header; raises typed errors (the caller refuses to resume
   against a journal it cannot trust). *)
let decode_header_exn ~manifest_id r =
  Binio.Reader.magic r magic_tag;
  let voff = Binio.Reader.pos r in
  let v = Binio.Reader.varint r in
  if v <> format_version then
    Whisper_error.raise_error ~offset:voff Whisper_error.Journal
      (Whisper_error.Version_mismatch { got = v; expected = format_version });
  let moff = Binio.Reader.pos r in
  let mid = Binio.Reader.string r in
  if mid <> manifest_id then
    Whisper_error.raise_error ~offset:moff ~context:mid Whisper_error.Journal
      Whisper_error.Key_mismatch

(* One record at the reader's position.  Any defect — bad marker, a
   varint that overflows, a length past the remaining input, a checksum
   mismatch, a payload that does not decode exactly — raises, and the
   caller treats everything from the record's start as the torn tail. *)
let decode_record_exn r =
  let moff = Binio.Reader.pos r in
  let marker = Binio.Reader.byte r in
  if marker <> record_marker then
    Whisper_error.raise_error ~offset:moff Whisper_error.Journal
      (Whisper_error.Malformed
         (Printf.sprintf "bad record marker 0x%02x" marker));
  let loff = Binio.Reader.pos r in
  let len = Binio.Reader.varint r in
  if len > max_payload then
    Whisper_error.raise_error ~offset:loff Whisper_error.Journal
      (Whisper_error.Count_overflow
         { count = len; remaining = Binio.Reader.remaining r });
  if len + checksum_len > Binio.Reader.remaining r then
    Whisper_error.raise_error ~offset:loff Whisper_error.Journal
      Whisper_error.Truncated;
  let poff = Binio.Reader.pos r in
  let payload = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set payload i (Char.chr (Binio.Reader.byte r))
  done;
  let sum = Bytes.create checksum_len in
  for i = 0 to checksum_len - 1 do
    Bytes.set sum i (Char.chr (Binio.Reader.byte r))
  done;
  if Bytes.to_string sum <> checksum payload then
    Whisper_error.raise_error ~offset:poff Whisper_error.Journal
      (Whisper_error.Malformed "record checksum mismatch");
  let pr = Binio.Reader.create payload in
  let status = status_of_code ~offset:poff (Binio.Reader.varint pr) in
  let key = Binio.Reader.string pr in
  let detail = Binio.Reader.string pr in
  if not (Binio.Reader.eof pr) then
    Whisper_error.raise_error ~offset:(poff + Binio.Reader.pos pr)
      Whisper_error.Journal Whisper_error.Trailing_bytes;
  { key; status; detail }

let decode_all ~manifest_id b =
  let total = Bytes.length b in
  match
    Whisper_error.protect Whisper_error.Journal (fun () ->
        let r = Binio.Reader.create b in
        decode_header_exn ~manifest_id r;
        r)
  with
  | Error e -> Error e
  | Ok r ->
      let entries = ref [] in
      let good_end = ref (Binio.Reader.pos r) in
      (try
         while not (Binio.Reader.eof r) do
           let e = decode_record_exn r in
           entries := e :: !entries;
           good_end := Binio.Reader.pos r
         done
       with _ -> ());
      let dropped = total - !good_end in
      Ok
        {
          entries = List.rev !entries;
          dropped_bytes = dropped;
          corrupt_tail = dropped > 0;
        }

let write_all fd b =
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let open_append path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644

let create ~path ~manifest_id =
  Durable.write_atomic path (encode_header ~manifest_id);
  { jpath = path; fd = Some (open_append path) }

let open_existing ~path ~manifest_id =
  match Durable.read path with
  | None ->
      Error
        (Whisper_error.make ~context:path Whisper_error.Journal
           (Whisper_error.Malformed "no such journal"))
  | Some b -> (
      match decode_all ~manifest_id b with
      | Error e -> Error e
      | Ok recovery ->
          (* truncate the torn suffix atomically: rewrite the good prefix
             next to the file and rename it over *)
          if recovery.corrupt_tail then
            Durable.write_atomic path
              (Bytes.sub b 0 (Bytes.length b - recovery.dropped_bytes));
          Ok ({ jpath = path; fd = Some (open_append path) }, recovery))

let append t e =
  match t.fd with
  | None -> invalid_arg "Journal.append: closed"
  | Some fd ->
      write_all fd (encode_entry e);
      (* push the record to the OS so a SIGKILL'd supervisor loses at
         most the record being written, never a buffered batch *)
      (try Unix.fsync fd with Unix.Unix_error _ -> ())

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
      t.fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let path t = t.jpath

type opened = {
  journal : t;
  last : (string, entry) Hashtbl.t;
  recovered : bool;
  dropped : int;
}

let open_or_resume ~dir ~resume manifest =
  let mid = Manifest.id manifest in
  let manifest_path = Filename.concat dir "manifest.bin" in
  let path = Filename.concat dir "journal.bin" in
  let same_manifest () =
    Result.map Manifest.id (Manifest.load ~path:manifest_path) = Ok mid
  in
  match
    if resume && same_manifest () then
      Result.to_option (open_existing ~path ~manifest_id:mid)
    else None
  with
  | Some (journal, r) ->
      (* the last record per key wins: a crash between a step's side
         effects and its append re-journals the step when it re-runs *)
      let last = Hashtbl.create 64 in
      List.iter (fun e -> Hashtbl.replace last e.key e) r.entries;
      { journal; last; recovered = true; dropped = r.dropped_bytes }
  | None ->
      Manifest.save manifest ~path:manifest_path;
      let journal = create ~path ~manifest_id:mid in
      { journal; last = Hashtbl.create 1; recovered = false; dropped = 0 }
