let format_version = 1
let magic_tag = "WMAN"

type item = { key : string; spec : string }
type t = { meta : (string * string) list; items : item array }

let make ~meta items = { meta; items }

let encode t =
  let w = Binio.Writer.create ~capacity:4096 () in
  Binio.Writer.magic w magic_tag;
  Binio.Writer.varint w format_version;
  Binio.Writer.varint w (List.length t.meta);
  List.iter
    (fun (k, v) ->
      Binio.Writer.string w k;
      Binio.Writer.string w v)
    t.meta;
  Binio.Writer.varint w (Array.length t.items);
  Array.iter
    (fun it ->
      Binio.Writer.string w it.key;
      Binio.Writer.string w it.spec)
    t.items;
  Binio.Writer.contents w

let id t = Digest.to_hex (Digest.bytes (encode t))

let decode_exn b =
  let r = Binio.Reader.create b in
  Binio.Reader.magic r magic_tag;
  let voff = Binio.Reader.pos r in
  let v = Binio.Reader.varint r in
  if v <> format_version then
    Whisper_error.raise_error ~offset:voff Whisper_error.Manifest
      (Whisper_error.Version_mismatch { got = v; expected = format_version });
  (* every meta pair / item is at least two length bytes *)
  let n_meta = Binio.Reader.count ~per_elem:2 r in
  let meta =
    List.init n_meta (fun _ ->
        let k = Binio.Reader.string r in
        let v = Binio.Reader.string r in
        (k, v))
  in
  let n_items = Binio.Reader.count ~per_elem:2 r in
  let items =
    Array.init n_items (fun _ ->
        let key = Binio.Reader.string r in
        let spec = Binio.Reader.string r in
        { key; spec })
  in
  if not (Binio.Reader.eof r) then
    Whisper_error.raise_error ~offset:(Binio.Reader.pos r)
      Whisper_error.Manifest Whisper_error.Trailing_bytes;
  { meta; items }

let decode b =
  Whisper_error.protect Whisper_error.Manifest (fun () -> decode_exn b)

let save t ~path = Durable.write_atomic path (encode t)

let load ~path =
  match Durable.read path with
  | None ->
      Error
        (Whisper_error.make ~context:path Whisper_error.Manifest
           (Whisper_error.Malformed "no such manifest"))
  | Some b ->
      Whisper_error.protect ~context:path Whisper_error.Manifest (fun () ->
          decode_exn b)
