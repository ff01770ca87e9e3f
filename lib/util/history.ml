type t = {
  buf : Bytes.t;
  cap : int;
  mutable head : int; (* index of the most recent outcome *)
}

let create ~depth =
  if depth <= 0 then invalid_arg "History.create";
  { buf = Bytes.make depth '\000'; cap = depth; head = 0 }

let push t taken =
  (* head is always in [0, cap): the compare-based wraparound is exactly
     [(head + 1) mod cap] without the hot-loop integer division *)
  let h = t.head + 1 in
  t.head <- (if h >= t.cap then 0 else h);
  Bytes.unsafe_set t.buf t.head (if taken then '\001' else '\000')

let get t i =
  if i < 0 then invalid_arg "History.get";
  if i >= t.cap then 0
  else
    let idx = t.head - i in
    let idx = if idx < 0 then idx + t.cap else idx in
    Char.code (Bytes.unsafe_get t.buf idx)

module Folded = struct
  type h = t

  type t = {
    f_len : int;
    f_chunk : int;
    f_mask : int;
    out_pos : int; (* len mod chunk: position where the outgoing bit lands *)
    mutable value : int;
  }

  let create ~len ~chunk =
    if len <= 0 || chunk <= 0 || chunk > 62 then invalid_arg "Folded.create";
    {
      f_len = len;
      f_chunk = chunk;
      f_mask = Bitops.mask chunk;
      out_pos = len mod chunk;
      value = 0;
    }

  let len t = t.f_len
  let chunk t = t.f_chunk
  let value t = t.value

  let update t ~(history : h) ~newest =
    (* Every live bit ages by one (circular left rotate), the new bit enters
       at position 0, and the bit of age len-1 leaves via position
       len mod chunk. *)
    let rot =
      ((t.value lsl 1) lor (t.value lsr (t.f_chunk - 1))) land t.f_mask
    in
    let incoming = if newest then 1 else 0 in
    let outgoing = get history (t.f_len - 1) in
    t.value <- rot lxor incoming lxor (outgoing lsl t.out_pos)
end

(* Explicit loop: [Array.iter] would allocate the capturing closure on
   every call, and this runs once per event under every TAGE instance. *)
let push_all t regs taken =
  for i = 0 to Array.length regs - 1 do
    Folded.update (Array.unsafe_get regs i) ~history:t ~newest:taken
  done;
  push t taken
