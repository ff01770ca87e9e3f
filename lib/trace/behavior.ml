open Whisper_util

type kind =
  | Always_taken
  | Never_taken
  | Bias of float
  | Loop of { period : int }
  | Short_formula of { len : int; table : int }
  | Hashed_formula of { len_idx : int; formula_id : int }
  | Parity of { len : int; step : int }
  | Ctx_prf of { len : int; seed : int; p_taken : float }
  | Random of float

type t = { kind : kind; noise : float }

let formula_leaves = 8

(* History layout.  Every outcome recorded so far is one bit of [ring], a
   power-of-two bitmap indexed by event number modulo its size, and the
   last 62 are also [raw], newest in bit 0.  A length-L fold's outgoing
   bit when event p is recorded is ring bit p - L (0 while p < L), the
   rule profile pass 2 and the TAGE-SC-L kernel use over the arena, so
   no per-length state but the fold itself is kept.  Short and ctx-PRF
   windows are [raw] masked; a parity is a masked xor-fold of [raw],
   plus ring reads for ages past the register.  Ages at or beyond
   [depth] read as 0, as they did in the fixed-depth ring this layout
   replaced, so every window, fold and parity sees the same bits. *)
type ctx = {
  c_lengths : int array;
  chunk : int;
  fold_mask : int;
  folds : int array;
  out_pos : int array;  (* len mod chunk: where each fold's outgoing bit lands *)
  depth : int;
  ring : Bytes.t;
  ring_mask : int;  (* ring bits - 1 *)
  mutable events : int;  (* outcomes recorded *)
  mutable raw : int;
  loop_counters : int array;
}

(* a longer series would only size a ring no window can use *)
let max_length = 1 lsl 24

let make_ctx ~lengths ~n_branches ~chunk =
  if
    chunk <= 0 || chunk > 62
    || Array.exists (fun l -> l <= 0 || l > max_length) lengths
  then invalid_arg "Behavior.make_ctx: bad chunk or length series";
  let max_len = Array.fold_left max 1 lengths in
  let depth = max 64 (2 * max_len) in
  let bits = ref 64 in
  while !bits < depth do
    bits := 2 * !bits
  done;
  {
    c_lengths = Array.copy lengths;
    chunk;
    fold_mask = Bitops.mask chunk;
    folds = Array.make (Array.length lengths) 0;
    out_pos = Array.map (fun len -> len mod chunk) lengths;
    depth;
    ring = Bytes.make (!bits / 8) '\000';
    ring_mask = !bits - 1;
    events = 0;
    raw = 0;
    loop_counters = Array.make (max 1 n_branches) 0;
  }

let lengths ctx = ctx.c_lengths
let hash_at ctx len_idx = ctx.folds.(len_idx)

(* [e] is already reduced by [ring_mask] *)
let[@inline] ring_bit ring e =
  (Char.code (Bytes.unsafe_get ring (e lsr 3)) lsr (e land 7)) land 1

let outcome ctx age =
  if age < 0 then invalid_arg "Behavior.outcome";
  let e = ctx.events - 1 - age in
  if age >= ctx.depth || e < 0 then 0 else ring_bit ctx.ring (e land ctx.ring_mask)

let[@inline] window ctx len =
  if len < 0 || len > 62 then invalid_arg "Behavior: window wider than 62";
  ctx.raw land ((1 lsl len) - 1)

(* the ages [0, step, 2 step, ...] below [min len 62] as a mask over [raw] *)
let parity_mask ~len ~step =
  if step <= 0 then invalid_arg "Behavior: parity step <= 0";
  let m = ref 0 and j = ref 0 and stop = Int.min len 62 in
  while !j < stop do
    m := !m lor (1 lsl !j);
    j := !j + step
  done;
  !m

let parity ctx ~len ~step ~mask =
  let x = ctx.raw land mask in
  let x = x lxor (x lsr 32) in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  let acc = ref ((x lxor (x lsr 1)) land 1) in
  (* ages past the register, from the first multiple of [step] >= 62 *)
  let j = ref (if step >= 62 then step else (62 + step - 1) / step * step) in
  let stop = Int.min len ctx.depth in
  while !j < stop do
    let e = ctx.events - 1 - !j in
    if e >= 0 then acc := !acc lxor ring_bit ctx.ring (e land ctx.ring_mask);
    j := !j + step
  done;
  !acc

(* [aux] is the branch's parity mask and [table] its formula's truth
   table, resolved once per branch by a walk and per call by [eval] *)
let[@inline] eval_with ctx ~rng ~branch ~aux ~table t =
  let base =
    match t.kind with
    | Always_taken -> true
    | Never_taken -> false
    | Bias p | Random p -> Rng.bernoulli rng p
    | Loop { period } ->
        let c = ctx.loop_counters.(branch) in
        ctx.loop_counters.(branch) <- (c + 1) mod period;
        c < period - 1
    | Short_formula { len; table = bits } -> (bits lsr window ctx len) land 1 = 1
    | Hashed_formula { len_idx; formula_id = _ } ->
        Bytes.get table ctx.folds.(len_idx) <> '\000'
    | Parity { len; step } -> parity ctx ~len ~step ~mask:aux = 1
    | Ctx_prf { len; seed; p_taken } ->
        let w = window ctx len in
        let z = (seed * 0x9E3779B1) lxor (w * 0x85EBCA77) in
        let z = (z lxor (z lsr 31)) * 0xC2B2AE3D in
        let z = (z lxor (z lsr 29)) land 0x3FFFFFFF in
        float_of_int z /. 1073741824.0 < p_taken
  in
  if t.noise > 0.0 && Rng.bernoulli rng t.noise then not base else base

let aux_of = function Parity { len; step } -> parity_mask ~len ~step | _ -> 0

let table_of = function
  | Hashed_formula { formula_id; len_idx = _ } ->
      Whisper_formula.Tree.truth_table
        (Whisper_formula.Tree.of_id ~leaves:formula_leaves formula_id)
  | _ -> Bytes.empty

let eval ctx ~rng ~branch t =
  eval_with ctx ~rng ~branch ~aux:(aux_of t.kind) ~table:(table_of t.kind) t

let[@inline] record ctx taken =
  let b = Bool.to_int taken and p = ctx.events in
  let ring = ctx.ring and rmask = ctx.ring_mask in
  let lengths = ctx.c_lengths and folds = ctx.folds and out_pos = ctx.out_pos in
  let top = ctx.chunk - 1 and fmask = ctx.fold_mask in
  for k = 0 to Array.length folds - 1 do
    let e = p - Array.unsafe_get lengths k in
    let o = if e < 0 then 0 else ring_bit ring (e land rmask) in
    let v = Array.unsafe_get folds k in
    Array.unsafe_set folds k
      (((v lsl 1) lor (v lsr top)) land fmask
      lxor b
      lxor (o lsl Array.unsafe_get out_pos k))
  done;
  let q = (p land rmask) lsr 3 and m = 1 lsl (p land 7) in
  let c = Char.code (Bytes.unsafe_get ring q) in
  Bytes.unsafe_set ring q (Char.unsafe_chr (if b = 1 then c lor m else c land lnot m));
  ctx.raw <- ((ctx.raw lsl 1) lor b) land max_int;
  ctx.events <- p + 1

(* A walk over a program's blocks: the generator's per-event loop.  It
   lives here, with the evaluator, so that under [-opaque] the loop makes
   no call into another module for its branches.  Its draws still call
   [Rng], which keeps one SplitMix64: a copy of the draw inlined here
   measured no faster (within 3 %, either way, interleaved in one
   process on the four perfbench apps). *)
type walk = {
  w_ctx : ctx;
  w_rng : Rng.t;
  behaviors : t array;
  aux : int array;
  tables : Bytes.t array;  (* [unresolved] until the block first runs *)
  by_formula : (int, Bytes.t) Hashtbl.t;  (* resolved tables, shared *)
  loop_back : bool array;
  sessions : int array array;
  sums : float array;
  mutable session : int array;
  mutable pos : int;
}

let unresolved = Bytes.make 1 '\000'

let walk ctx ~rng ~behaviors ~loop_back ~sessions ~sums =
  let n = Array.length behaviors in
  if
    Array.length loop_back <> n
    || n > Array.length ctx.loop_counters
    || Array.length sums <> Array.length sessions
    || Array.exists
         (fun s -> Array.length s = 0 || Array.exists (fun b -> b < 0 || b >= n) s)
         sessions
  then invalid_arg "Behavior.walk: sessions outside the blocks";
  let session = sessions.(Rng.sample_cumulative rng sums) in
  {
    w_ctx = ctx;
    w_rng = rng;
    behaviors;
    aux = Array.map (fun b -> aux_of b.kind) behaviors;
    tables =
      Array.map
        (fun b ->
          match b.kind with Hashed_formula _ -> unresolved | _ -> Bytes.empty)
        behaviors;
    by_formula = Hashtbl.create 64;
    loop_back;
    sessions;
    sums;
    session;
    pos = 0;
  }

(* once per hashed-formula block, the first time it runs *)
let resolve w b =
  let kind = w.behaviors.(b).kind in
  let id = match kind with Hashed_formula { formula_id; _ } -> formula_id | _ -> -1 in
  let tt =
    match Hashtbl.find_opt w.by_formula id with
    | Some tt -> tt
    | None ->
        let tt = table_of kind in
        Hashtbl.add w.by_formula id tt;
        tt
  in
  w.tables.(b) <- tt;
  tt

let walk_block w =
  let b = w.session.(w.pos) in
  if b < 0 || b >= Array.length w.behaviors then
    invalid_arg "Behavior.walk_block: a session names a block outside the program";
  b

(* Each block id is checked against the block count as it is read from
   its session, so it indexes the per-block arrays unchecked. *)
let walk_fill w ~n ~block ~taken =
  if n < 0 || n > Array.length block || (n + 7) / 8 > Bytes.length taken then
    invalid_arg "Behavior.walk_fill: buffers shorter than n";
  let ctx = w.w_ctx and rng = w.w_rng and n_blocks = Array.length w.behaviors in
  for i = 0 to n - 1 do
    let cur = Array.unsafe_get w.session w.pos in
    if cur < 0 || cur >= n_blocks then
      invalid_arg "Behavior.walk_fill: a session names a block outside the program";
    let table = Array.unsafe_get w.tables cur in
    let table = if table == unresolved then resolve w cur else table in
    let tk =
      eval_with ctx ~rng ~branch:cur ~aux:(Array.unsafe_get w.aux cur) ~table
        (Array.unsafe_get w.behaviors cur)
    in
    record ctx tk;
    (* A taken loop-back branch re-executes its own block; otherwise the
       walk advances through the session, switching sessions at the end. *)
    if not (tk && Array.unsafe_get w.loop_back cur) then
      if w.pos + 1 >= Array.length w.session then begin
        w.session <-
          Array.unsafe_get w.sessions (Rng.sample_cumulative rng w.sums);
        w.pos <- 0
      end
      else w.pos <- w.pos + 1;
    Array.unsafe_set block i cur;
    let q = i lsr 3 and m = 1 lsl (i land 7) in
    let c = Char.code (Bytes.unsafe_get taken q) in
    Bytes.unsafe_set taken q (Char.unsafe_chr (if tk then c lor m else c land lnot m))
  done

let kind_name = function
  | Always_taken -> "always-taken"
  | Never_taken -> "never-taken"
  | Bias _ -> "bias"
  | Loop _ -> "loop"
  | Short_formula _ -> "short-formula"
  | Hashed_formula _ -> "hashed-formula"
  | Parity _ -> "parity"
  | Ctx_prf _ -> "ctx-prf"
  | Random _ -> "random"

let pp fmt t =
  match t.kind with
  | Bias p -> Format.fprintf fmt "bias(%.2f)+n%.2f" p t.noise
  | Loop { period } -> Format.fprintf fmt "loop(%d)+n%.2f" period t.noise
  | Short_formula { len; table } ->
      Format.fprintf fmt "short(len=%d,tbl=%x)+n%.2f" len table t.noise
  | Hashed_formula { len_idx; formula_id } ->
      Format.fprintf fmt "hashed(idx=%d,f=%d)+n%.2f" len_idx formula_id t.noise
  | Parity { len; step } ->
      Format.fprintf fmt "parity(len=%d,step=%d)+n%.2f" len step t.noise
  | Ctx_prf { len; seed = _; p_taken } ->
      Format.fprintf fmt "ctx-prf(len=%d,p=%.2f)+n%.2f" len p_taken t.noise
  | Random p -> Format.fprintf fmt "random(%.2f)" p
  | k -> Format.fprintf fmt "%s+n%.2f" (kind_name k) t.noise
