open Whisper_util

(* Packed structure-of-arrays replay buffer: the (app, input) event stream
   is decoded exactly once into flat int arrays plus a taken bitset, then
   replayed by index with zero per-event allocation.  The record is
   immutable after [build]/[read], so pool domains share one arena
   read-only without copying. *)

type t = {
  n : int;
  block : int array;
  pc : int array;
  instrs : int array;
  next_addr : int array;
  taken : Bytes.t;  (* bit i of byte i/8 *)
}

let length t = t.n
let block t i = Array.unsafe_get t.block i
let pc t i = Array.unsafe_get t.pc i
let instrs t i = Array.unsafe_get t.instrs i
let next_addr t i = Array.unsafe_get t.next_addr i

let taken t i =
  Char.code (Bytes.unsafe_get t.taken (i lsr 3)) land (1 lsl (i land 7)) <> 0

let alloc n =
  {
    n;
    block = Array.make (max 1 n) 0;
    pc = Array.make (max 1 n) 0;
    instrs = Array.make (max 1 n) 0;
    next_addr = Array.make (max 1 n) 0;
    taken = Bytes.make ((n + 7) / 8) '\000';
  }

let build ~events model =
  if events < 0 then invalid_arg "Arena.build: negative events";
  let t = alloc events in
  App_model.fill model ~n:events ~block:t.block ~pc:t.pc ~instrs:t.instrs
    ~next_addr:t.next_addr ~taken:t.taken;
  t

let of_source ~events src =
  if events < 0 then invalid_arg "Arena.of_source: negative events";
  let t = alloc events in
  for i = 0 to events - 1 do
    let e : Branch.event = src () in
    t.block.(i) <- e.block;
    t.pc.(i) <- e.pc;
    t.instrs.(i) <- e.instrs;
    t.next_addr.(i) <- e.next_addr;
    if e.taken then
      Bytes.set t.taken (i lsr 3)
        (Char.chr (Char.code (Bytes.get t.taken (i lsr 3)) lor (1 lsl (i land 7))))
  done;
  t

let event t i =
  if i < 0 || i >= t.n then invalid_arg "Arena.event: index out of bounds";
  {
    Branch.block = t.block.(i);
    pc = t.pc.(i);
    taken = taken t i;
    instrs = t.instrs.(i);
    next_addr = t.next_addr.(i);
  }

let source t =
  let i = ref 0 in
  fun () ->
    if !i >= t.n then failwith "Arena.source: replay exhausted";
    let e = event t !i in
    incr i;
    e

(* Codec: versioned, bounds-checked, total on corrupt input (every read
   goes through Binio.Reader and surfaces as a typed Arena_cache error).
   Counts are validated against the remaining input before any array is
   allocated, so a corrupt length can never drive a giant allocation. *)

let magic_tag = "WTAR"
let format_version = 1

let write w t =
  Binio.Writer.magic w magic_tag;
  Binio.Writer.varint w format_version;
  Binio.Writer.varint w t.n;
  for i = 0 to t.n - 1 do
    Binio.Writer.varint w t.block.(i)
  done;
  for i = 0 to t.n - 1 do
    Binio.Writer.varint w t.pc.(i)
  done;
  for i = 0 to t.n - 1 do
    Binio.Writer.varint w t.instrs.(i)
  done;
  for i = 0 to t.n - 1 do
    Binio.Writer.varint w t.next_addr.(i)
  done;
  Binio.Writer.bytes w (Bytes.sub t.taken 0 ((t.n + 7) / 8))

let read r =
  Binio.Reader.magic r magic_tag;
  let voff = Binio.Reader.pos r in
  let v = Binio.Reader.varint r in
  if v <> format_version then
    Whisper_error.raise_error ~offset:voff Whisper_error.Arena_cache
      (Whisper_error.Version_mismatch { got = v; expected = format_version });
  let n = Binio.Reader.count r in
  let t = alloc n in
  let fill_field a =
    for i = 0 to n - 1 do
      a.(i) <- Binio.Reader.varint r
    done
  in
  fill_field t.block;
  fill_field t.pc;
  fill_field t.instrs;
  fill_field t.next_addr;
  let boff = Binio.Reader.pos r in
  let bits = Binio.Reader.bytes r in
  if Bytes.length bits <> (n + 7) / 8 then
    Whisper_error.raise_error ~offset:boff Whisper_error.Arena_cache
      (Whisper_error.Out_of_range "taken bitset length");
  Bytes.blit bits 0 t.taken 0 (Bytes.length bits);
  t

let to_bytes t =
  let w = Binio.Writer.create ~capacity:(16 + (5 * t.n)) () in
  write w t;
  Binio.Writer.contents w

let of_bytes b =
  Whisper_error.protect Whisper_error.Arena_cache (fun () ->
      let r = Binio.Reader.create b in
      let t = read r in
      if not (Binio.Reader.eof r) then
        Whisper_error.raise_error ~offset:(Binio.Reader.pos r)
          Whisper_error.Arena_cache Whisper_error.Trailing_bytes;
      t)

let digest t = Digest.to_hex (Digest.bytes (to_bytes t))

let equal a b =
  a.n = b.n && a.block = b.block && a.pc = b.pc && a.instrs = b.instrs
  && a.next_addr = b.next_addr
  && Bytes.sub a.taken 0 ((a.n + 7) / 8) = Bytes.sub b.taken 0 ((b.n + 7) / 8)
