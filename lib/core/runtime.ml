open Whisper_util
open Whisper_trace

(* ------------------------------------------------------------------ *)
(* Interpretive oracle                                                 *)
(* ------------------------------------------------------------------ *)

(* The seed implementation, retained verbatim as the differential
   oracle for the compiled runtime below (the same policy as the naive
   Algorithm-1 scorer and the closure replay path): per-event
   [Inject.hints_at] Hashtbl lookups, a lazily filled byte truth-table
   cache, an [Lru]-backed hint buffer, and [History.push_all] over every
   configured length.  Slow, allocating, and obviously faithful to the
   paper's per-event protocol — which is exactly what an oracle is
   for. *)
module Reference = struct
  type t = {
    base : Whisper_bpu.Predictor.t;
    plan : Inject.t;
    lru : Brhint.t Lru.t;
    hist : History.t;
    folded : History.Folded.t array;
    truths : (int, Bytes.t) Hashtbl.t;
    hash_bits : int;
    mutable b_insert : int;
    mutable b_hit : int;
    mutable b_miss : int;
    mutable n_hinted : int;
    mutable n_hinted_wrong : int;
    mutable n_base : int;
  }

  let create (cfg : Config.t) ~baseline ~plan =
    let lengths = Config.lengths cfg in
    let max_len = Array.fold_left max 1 lengths in
    {
      base = baseline;
      plan;
      lru = Lru.create ~capacity:cfg.hint_buffer_size;
      hist = History.create ~depth:(2 * max_len);
      folded =
        Array.map
          (fun len -> History.Folded.create ~len ~chunk:cfg.hash_bits)
          lengths;
      truths = Hashtbl.create 256;
      hash_bits = cfg.hash_bits;
      b_insert = 0;
      b_hit = 0;
      b_miss = 0;
      n_hinted = 0;
      n_hinted_wrong = 0;
      n_base = 0;
    }

  let truth t id =
    match Hashtbl.find_opt t.truths id with
    | Some b -> b
    | None ->
        let b =
          Whisper_formula.Tree.truth_table
            (Whisper_formula.Tree.of_id ~leaves:t.hash_bits id)
        in
        Hashtbl.add t.truths id b;
        b

  let hint_prediction t (h : Brhint.t) =
    match h.bias with
    | Brhint.Always_taken -> Some true
    | Brhint.Never_taken -> Some false
    | Brhint.Dynamic -> None
    | Brhint.Formula ->
        let hash = History.Folded.value t.folded.(h.len_idx) in
        Some (Whisper_formula.Tree.eval_tt (truth t h.formula_id) hash)

  let exec_at t ~block ~pc ~taken =
    (* 1. execute any brhints hosted in this block *)
    List.iter
      (fun (p : Inject.placement) ->
        t.b_insert <- t.b_insert + 1;
        ignore (Lru.add t.lru p.branch_pc p.hint))
      (Inject.hints_at t.plan ~block);
    (* 2. predict: hint buffer and dynamic predictor are probed in
       parallel; a hinted branch does not train or allocate in the
       baseline.  [Lru.peek], not [find]: probing is not a use (see
       Hint_buffer's semantics note). *)
    let hinted =
      match Lru.peek t.lru pc with
      | Some h ->
          t.b_hit <- t.b_hit + 1;
          hint_prediction t h
      | None ->
          t.b_miss <- t.b_miss + 1;
          None
    in
    let correct =
      match hinted with
      | Some pred ->
          t.n_hinted <- t.n_hinted + 1;
          t.base.spectate ~pc ~taken;
          let ok = pred = taken in
          if not ok then t.n_hinted_wrong <- t.n_hinted_wrong + 1;
          ok
      | None ->
          t.n_base <- t.n_base + 1;
          let pred = t.base.predict ~pc in
          t.base.train ~pc ~taken;
          t.base.is_oracle || pred = taken
    in
    (* 3. advance Whisper's folded-history mirror *)
    History.push_all t.hist t.folded taken;
    correct

  let exec t (e : Branch.event) =
    exec_at t ~block:e.Branch.block ~pc:e.pc ~taken:e.taken

  let hinted_predictions t = t.n_hinted
  let hinted_mispredictions t = t.n_hinted_wrong
  let baseline_predictions t = t.n_base
  let buffer_stats t = (t.b_insert, t.b_hit, t.b_miss)
end

(* ------------------------------------------------------------------ *)
(* Compiled runtime                                                    *)
(* ------------------------------------------------------------------ *)

(* The plan is compiled once at [create] into flat arrays; the per-event
   path then touches no Hashtbl, no list, no option and allocates
   nothing:

   - [index]/[e_pc] are the plan's CSR view ({!Inject.Packed}): the
     brhints hosted by a block are a contiguous entry range, found by
     two array reads;
   - [bank] is the dense truth-table bank: every distinct formula in the
     plan becomes one [words_per_table]-word packed table, with the
     Always/Never biases folded in as constant all-ones/all-zeros
     tables, so a hinted prediction is a single
     {!Whisper_formula.Tree.eval_packed_at} bit test.  [e_off] maps an
     entry to its table's word offset, with [-1] reserved for the
     Dynamic bias (predict-dynamically hints fall through to the
     baseline path, which no table can express);
   - [folds] holds folded-history registers for only the lengths the
     plan's formulas actually reference ([e_fold] maps entries to
     register slots), so the per-event history step updates a handful of
     registers instead of all [Config.n_lengths].  They are plain ints
     updated inline: the bit leaving a length-L register at event [pos]
     is outcome [pos - L], read from [ring], a bitmap of the last
     [ring_mask + 1] outcomes (at least the longest length read, so the
     slot of an outcome before the run's first is still 0);
   - the hint buffer stores the entry index as its payload, so a probe
     hit returns everything the prediction needs as one non-negative
     int. *)
type t = {
  base : Whisper_bpu.Predictor.t;
  max_host : int;
  index : int array;
  e_pc : int array;
  e_off : int array;
  e_fold : int array;
  bank : int array;
  buf : Hint_buffer.t;
  folds : int array;
  f_len : int array;
  f_out : int array;  (* each register's outgoing bit, as a mask *)
  f_top : int;  (* hash_bits - 1: the bit that wraps in a rotate *)
  f_mask : int;
  ring : Bytes.t;
  ring_mask : int;
  mutable pos : int;  (* events seen *)
  mutable n_hinted : int;
  mutable n_hinted_wrong : int;
  mutable n_base : int;
}

let word_ones = (1 lsl 32) - 1

let create (cfg : Config.t) ~baseline ~plan =
  let lengths = Config.lengths cfg in
  let hash_bits = cfg.hash_bits in
  let words_per_table = ((1 lsl hash_bits) + 31) lsr 5 in
  let packed = Inject.Packed.of_plan plan in
  let n = Inject.Packed.n_entries packed in
  let encoded = Inject.Packed.hint packed in
  let hints = Array.map Brhint.decode encoded in
  (* folded registers for only the lengths formula hints reference; a
     plan with bias-only hints still gets one register so the shared
     e_fold = 0 slot of constant-table entries stays in range *)
  let len_used = Array.make (Array.length lengths) false in
  Array.iter
    (fun (h : Brhint.t) ->
      if h.bias = Brhint.Formula then len_used.(h.len_idx) <- true)
    hints;
  if n > 0 && not (Array.exists Fun.id len_used) then len_used.(0) <- true;
  let fold_slot = Array.make (Array.length lengths) 0 in
  let used = ref [] in
  Array.iteri
    (fun i u ->
      if u then begin
        fold_slot.(i) <- List.length !used;
        used := lengths.(i) :: !used
      end)
    len_used;
  let f_len = Array.of_list (List.rev !used) in
  if f_len <> [||] && (hash_bits < 1 || hash_bits > 62) then
    invalid_arg "Runtime.create: hash_bits outside 1..62";
  let ring_bits =
    1 lsl Bitops.log2_ceil (Int.max 8 (Array.fold_left Int.max 1 f_len))
  in
  (* truth-table bank: one table per distinct formula id, plus shared
     constant tables for the Always/Never biases *)
  let table_key (h : Brhint.t) =
    match h.bias with
    | Brhint.Formula -> h.formula_id
    | Brhint.Always_taken -> -1
    | Brhint.Never_taken -> -2
    | Brhint.Dynamic -> min_int
  in
  let offsets = Hashtbl.create 64 in
  let n_tables = ref 0 in
  Array.iter
    (fun h ->
      let key = table_key h in
      if key > min_int && not (Hashtbl.mem offsets key) then begin
        Hashtbl.add offsets key (!n_tables * words_per_table);
        incr n_tables
      end)
    hints;
  let bank = Array.make (max 1 (!n_tables * words_per_table)) 0 in
  Hashtbl.iter
    (fun key off ->
      match key with
      | -1 -> Array.fill bank off words_per_table word_ones
      | -2 -> ()
      | id ->
          Array.blit
            (Whisper_formula.Tree.packed_truth_table
               (Whisper_formula.Tree.of_id ~leaves:hash_bits id))
            0 bank off words_per_table)
    offsets;
  let e_off =
    Array.map
      (fun h ->
        let key = table_key h in
        if key = min_int then -1 else Hashtbl.find offsets key)
      hints
  in
  let e_fold =
    Array.map
      (fun (h : Brhint.t) ->
        if h.bias = Brhint.Formula then fold_slot.(h.len_idx) else 0)
      hints
  in
  {
    base = baseline;
    max_host = Inject.Packed.max_host packed;
    index = Inject.Packed.index packed;
    e_pc = Inject.Packed.branch_pc packed;
    e_off;
    e_fold;
    bank;
    buf = Hint_buffer.create ~size:cfg.hint_buffer_size;
    folds = Array.make (Array.length f_len) 0;
    f_len;
    f_out = Array.map (fun len -> 1 lsl (len mod hash_bits)) f_len;
    f_top = hash_bits - 1;
    f_mask = Bitops.mask hash_bits;
    ring = Bytes.make (ring_bits lsr 3) '\000';
    ring_mask = ring_bits - 1;
    pos = 0;
    n_hinted = 0;
    n_hinted_wrong = 0;
    n_base = 0;
  }

let decide t ~block ~pc ~taken =
  (* 1. execute any brhints hosted in this block: a contiguous CSR entry
     range, each deposited into the hint buffer as its entry index *)
  if block <= t.max_host then begin
    let lo = Array.unsafe_get t.index block in
    let hi = Array.unsafe_get t.index (block + 1) in
    for e = lo to hi - 1 do
      Hint_buffer.insert t.buf ~branch_pc:(Array.unsafe_get t.e_pc e) e
    done
  end;
  (* 2. predict: a probe hit is the entry index; its precompiled table
     offset resolves the hint with one bit test (off = -1 marks the
     Dynamic bias, which falls through to the baseline like a miss) *)
  let e = Hint_buffer.probe t.buf ~branch_pc:pc in
  let off = if e >= 0 then Array.unsafe_get t.e_off e else -1 in
  let d =
    if off >= 0 then begin
      t.n_hinted <- t.n_hinted + 1;
      let hash = Array.unsafe_get t.folds (Array.unsafe_get t.e_fold e) in
      let pred = Whisper_formula.Tree.eval_packed_at t.bank ~off hash in
      if pred <> taken then t.n_hinted_wrong <- t.n_hinted_wrong + 1;
      Bool.to_int pred
    end
    else begin
      t.n_base <- t.n_base + 1;
      -1
    end
  in
  (* 3. advance the folded-history mirror — only the registers the plan
     reads, each rotated with the outcome in at bit 0 and outcome
     [pos - L] out at [f_out] — then record the outcome in the ring *)
  let b = Bool.to_int taken and pos = t.pos in
  let folds = t.folds and ring = t.ring and ring_mask = t.ring_mask in
  let top = t.f_top and mask = t.f_mask in
  for j = 0 to Array.length folds - 1 do
    let v = Array.unsafe_get folds j in
    let q = (pos - Array.unsafe_get t.f_len j) land ring_mask in
    let o =
      (Char.code (Bytes.unsafe_get ring (q lsr 3)) lsr (q land 7)) land 1
    in
    Array.unsafe_set folds j
      (((v lsl 1) lor (v lsr top))
       land mask
      lxor b
      lxor (-o land Array.unsafe_get t.f_out j))
  done;
  let q = pos land ring_mask in
  let byte = Char.code (Bytes.unsafe_get ring (q lsr 3)) in
  Bytes.unsafe_set ring (q lsr 3)
    (Char.unsafe_chr
       (byte land lnot (1 lsl (q land 7)) lor (b lsl (q land 7))));
  t.pos <- pos + 1;
  d

let exec_at t ~block ~pc ~taken =
  Whisper_bpu.Predictor.exec_hybrid t.base
    ~decision:(decide t ~block ~pc ~taken)
    ~pc ~taken

let exec t (e : Branch.event) =
  exec_at t ~block:e.Branch.block ~pc:e.pc ~taken:e.taken

let exec_arena t ~arena i =
  exec_at t ~block:(Arena.block arena i) ~pc:(Arena.pc arena i)
    ~taken:(Arena.taken arena i)

let hinted_predictions t = t.n_hinted
let hinted_mispredictions t = t.n_hinted_wrong
let baseline_predictions t = t.n_base
let buffer t = t.buf

let buffer_stats t =
  (Hint_buffer.insertions t.buf, Hint_buffer.hits t.buf, Hint_buffer.misses t.buf)
