open Whisper_util

type t = {
  tables : (int, int) Hashtbl.t array;  (* counter per substream key *)
  base : Bimodal.table;
  sc : Stat_corrector.t;
  hist : History.t;
  folded : History.Folded.t array;
  n : int;
  mutable ctx_pc : int;
  mutable ctx_provider : int;
  mutable ctx_keys : int array;
  mutable ctx_tage_pred : bool;
  mutable ctx_pred : bool;
}

(* SplitMix-style finalizer over (pc, folded-window) for collision-free-in-
   practice substream keys. *)
let[@inline] mix pc fold =
  let z = (pc * 0x9E3779B1) lxor (fold * 0x85EBCA77) in
  let z = (z lxor (z lsr 31)) * 0xC2B2AE3D in
  (z lxor (z lsr 29)) land max_int

(* table sizes of the bimodal base and of the corrector's banks *)
let base_log = 16
let sc_log = 15

let create ~n_lengths ~max_len =
  let lengths = Geometric.series ~a:8 ~n:max_len ~m:n_lengths in
  {
    tables = Array.map (fun _ -> Hashtbl.create 4096) lengths;
    base = Bimodal.create_table ~log_entries:base_log;
    sc = Stat_corrector.create ~log_entries:sc_log;
    hist = History.create ~depth:(2 * max_len);
    folded = Array.map (fun len -> History.Folded.create ~len ~chunk:62) lengths;
    n = n_lengths;
    ctx_pc = 0;
    ctx_provider = -1;
    ctx_keys = Array.make n_lengths 0;
    ctx_tage_pred = false;
    ctx_pred = false;
  }

let predict t ~pc =
  t.ctx_pc <- pc;
  for i = 0 to t.n - 1 do
    t.ctx_keys.(i) <- mix pc (History.Folded.value t.folded.(i))
  done;
  let provider = ref (-1) in
  let i = ref (t.n - 1) in
  while !provider < 0 && !i >= 0 do
    if Hashtbl.mem t.tables.(!i) t.ctx_keys.(!i) then provider := !i;
    decr i
  done;
  let pred, conf =
    if !provider >= 0 then begin
      let c = Hashtbl.find t.tables.(!provider) t.ctx_keys.(!provider) in
      let conf =
        match abs ((2 * c) - 7) with 7 | 5 -> `High | 3 -> `Med | _ -> `Low
      in
      (c >= 4, conf)
    end
    else (Bimodal.predict_t t.base ~pc, `Med)
  in
  t.ctx_provider <- !provider;
  t.ctx_tage_pred <- pred;
  let final = Stat_corrector.refine_conf t.sc ~conf ~pc ~tage_pred:pred in
  t.ctx_pred <- final;
  final

let train t ~pc ~taken =
  if pc <> t.ctx_pc then invalid_arg "Mtage.train: mismatch";
  Stat_corrector.train t.sc ~pc ~taken;
  (if t.ctx_provider >= 0 then begin
     let tbl = t.tables.(t.ctx_provider) in
     let key = t.ctx_keys.(t.ctx_provider) in
     let c = Hashtbl.find tbl key in
     Hashtbl.replace tbl key (Counters.update c ~taken ~min:0 ~max:7)
   end
   else Bimodal.update_t t.base ~pc ~taken);
  (* on a misprediction, memorize the substream at the next longer length *)
  if t.ctx_tage_pred <> taken && t.ctx_provider < t.n - 1 then begin
    let j = t.ctx_provider + 1 in
    Hashtbl.replace t.tables.(j) t.ctx_keys.(j) (if taken then 4 else 3)
  end;
  History.push_all t.hist t.folded taken

let spectate t ~taken =
  Stat_corrector.spectate t.sc ~taken;
  History.push_all t.hist t.folded taken

let predictor ?(n_lengths = 9) ?(max_len = 1024) () =
  let t = create ~n_lengths ~max_len in
  {
    Predictor.name = "mtage-sc-unlimited";
    predict = (fun ~pc -> predict t ~pc);
    train = (fun ~pc ~taken -> train t ~pc ~taken);
    spectate = (fun ~pc:_ ~taken -> spectate t ~taken);
    storage_bits = 0;
    is_oracle = false;
  }

(* ------------------------------------------------------------------ *)
(* Flat arena kernel                                                   *)
(* ------------------------------------------------------------------ *)

(* The closure predictor above, rebuilt over the arena the way
   {!Tage_scl.fill} rebuilds TAGE-SC-L.  Keys and the corrector's bank
   indices read only the PC and the direction history, so the global
   history of a fresh run is the arena's taken bitmap: the bit leaving a
   length-L fold at event [i] is bit [i - L] (0 before the run has L
   events), with no ring buffer.  The substream folds (62 bits wide) and
   the corrector's four folds live in one int array.  Each length's
   unlimited table is open addressing over an int array of keys, which
   [mix] never makes negative, so -1 marks an empty slot, with a byte of
   counter per slot.  A table doubles when it would pass load 1/2 and
   never deletes, so membership is exact, as [Hashtbl] gives it.  The
   bimodal base and the corrector (bias and banks one byte array of
   counters biased by +32) run in the same loop, and nothing in it calls
   out of this module: [bit], [fold] and [bump] repeat {!Tage_scl}'s
   because a call into another module is never inlined (DESIGN.md
   §19). *)

let[@inline] bit bits i =
  (Char.code (Bytes.unsafe_get bits (i lsr 3)) lsr (i land 7)) land 1

let fold v ~top ~mask ~b ~o ~out =
  ((v lsl 1) lor (v lsr top)) land mask lxor b lxor (o lsl out)

let sat_inc c ~max = if c >= max then max else c + 1
let sat_dec c ~min = if c <= min then min else c - 1

let bump b c ~taken ~max =
  let v = Char.code (Bytes.unsafe_get b c) in
  Bytes.unsafe_set b c
    (Char.unsafe_chr (if taken then sat_inc v ~max else sat_dec v ~min:0))

(* the slot holding [key] in a table, or the empty slot that ends its
   probe sequence (linear probing; a table is never full) *)
let[@inline] slot keys key =
  let mask = Array.length keys - 1 in
  let s = ref (key land mask) in
  while
    let k = Array.unsafe_get keys !s in
    k <> key && k >= 0
  do
    s := (!s + 1) land mask
  done;
  !s

(* table [k] at twice its capacity, every key and counter carried over *)
let grow keys ctrs k =
  let old = keys.(k) and old_c = ctrs.(k) in
  let cap = 2 * Array.length old in
  let nk = Array.make cap (-1) and nc = Bytes.create cap in
  for s = 0 to Array.length old - 1 do
    let key = Array.unsafe_get old s in
    if key >= 0 then begin
      let s' = slot nk key in
      Array.unsafe_set nk s' key;
      Bytes.unsafe_set nc s' (Bytes.unsafe_get old_c s)
    end
  done;
  keys.(k) <- nk;
  ctrs.(k) <- nc

let initial_capacity = 256

let fill ~n_lengths ~max_len ~arena ~n ~verdicts =
  let module A = Whisper_trace.Arena in
  (* the arena reads and the verdict writes below are unchecked *)
  if n < 0 || n > A.length arena || Bytes.length verdicts < n then
    invalid_arg "Mtage.compiled: n outside the arena or the verdicts";
  let pcs = arena.A.pc and bits = arena.A.taken in
  let lens = Geometric.series ~a:8 ~n:max_len ~m:n_lengths in
  let sc_lens = Stat_corrector.hist_lens in
  let nl = n_lengths and nb = Array.length sc_lens in
  let keys = Array.init nl (fun _ -> Array.make initial_capacity (-1)) in
  let ctrs = Array.init nl (fun _ -> Bytes.create initial_capacity) in
  let used = Array.make nl 0 in
  let bim = Bytes.make (1 lsl base_log) '\001' in
  let bim_mask = (1 lsl base_log) - 1 in
  let sc_mask = (1 lsl sc_log) - 1 and bias_off = nb lsl sc_log in
  let sc = Bytes.make ((nb + 1) lsl sc_log) ' ' in
  let sc_cell = Array.make nb 0 in
  let threshold = ref Stat_corrector.initial_threshold and tc = ref 0 in
  (* folds: the substream lengths' at 0 .. nl-1, then bank j's at nl + j;
     [f_out] is where each one's outgoing bit lands *)
  let f = Array.make (nl + nb) 0 in
  let f_out =
    Array.init (nl + nb) (fun q ->
        if q < nl then lens.(q) mod 62 else sc_lens.(q - nl) mod sc_log)
  in
  for i = 0 to n - 1 do
    let b = bit bits i in
    let taken = b = 1 in
    let pc = Array.unsafe_get pcs i in
    (* provider: the longest length whose table holds this substream *)
    let provider = ref (-1) and p_slot = ref 0 and k = ref (nl - 1) in
    while !k >= 0 do
      let kk = !k in
      if Array.unsafe_get used kk > 0 then begin
        let key = mix pc (Array.unsafe_get f kk) in
        let tk = Array.unsafe_get keys kk in
        let s = slot tk key in
        if Array.unsafe_get tk s = key then begin
          provider := kk;
          p_slot := s;
          k := -1
        end
        else decr k
      end
      else decr k
    done;
    let provider = !provider in
    let pc2 = pc lsr 2 in
    let bi = pc2 land bim_mask in
    let p_ctrs = if provider >= 0 then Array.unsafe_get ctrs provider else bim in
    let p_cell = if provider >= 0 then !p_slot else bi in
    let p_ctr = Char.code (Bytes.unsafe_get p_ctrs p_cell) in
    let tage_pred = if provider >= 0 then p_ctr >= 4 else p_ctr >= 2 in
    (* SC: the veto gate scales with the provider counter's confidence *)
    let gate =
      if provider < 0 then !threshold
      else
        match abs ((2 * p_ctr) - 7) with
        | 7 | 5 -> 4 * !threshold
        | 3 -> !threshold
        | _ -> !threshold / 2
    in
    let bias_cell = bias_off + (pc2 land sc_mask) in
    let s = ref ((2 * Char.code (Bytes.unsafe_get sc bias_cell)) - 63) in
    for j = 0 to nb - 1 do
      let c =
        (j lsl sc_log)
        + (pc2 lxor Array.unsafe_get f (nl + j) lxor (j * 0x9E5) land sc_mask)
      in
      Array.unsafe_set sc_cell j c;
      s := !s + (2 * Char.code (Bytes.unsafe_get sc c)) - 63
    done;
    let s = !s in
    let sc_pred = s >= 0 in
    let final =
      if sc_pred <> tage_pred && abs s > gate then sc_pred else tage_pred
    in
    Bytes.unsafe_set verdicts i (if final = taken then '\001' else '\000');
    (* train the corrector: threshold first, then the counters *)
    if sc_pred <> tage_pred then begin
      tc := !tc + if sc_pred = taken then 1 else -1;
      if !tc <= -16 then begin
        threshold := Int.min 256 (!threshold * 2);
        tc := 0
      end
      else if !tc >= 16 then begin
        threshold := Int.max 6 (!threshold - 2);
        tc := 0
      end
    end;
    if final <> taken || abs s <= !threshold then begin
      bump sc bias_cell ~taken ~max:63;
      for j = 0 to nb - 1 do
        bump sc (Array.unsafe_get sc_cell j) ~taken ~max:63
      done
    end;
    (* the provider's counter, or the base's *)
    bump p_ctrs p_cell ~taken ~max:(if provider >= 0 then 7 else 3);
    (* on a misprediction, memorize the substream at the next longer
       length, where the search above found it absent *)
    if tage_pred <> taken && provider < nl - 1 then begin
      let j = provider + 1 in
      let key = mix pc (Array.unsafe_get f j) in
      let u = Array.unsafe_get used j + 1 in
      if 2 * u > Array.length (Array.unsafe_get keys j) then grow keys ctrs j;
      let tk = Array.unsafe_get keys j in
      let s = slot tk key in
      Array.unsafe_set tk s key;
      Bytes.unsafe_set (Array.unsafe_get ctrs j) s
        (if taken then '\004' else '\003');
      Array.unsafe_set used j u
    end;
    (* advance the folds *)
    for q = 0 to nl - 1 do
      let l = Array.unsafe_get lens q in
      let o = if i >= l then bit bits (i - l) else 0 in
      Array.unsafe_set f q
        (fold (Array.unsafe_get f q) ~top:61 ~mask:max_int ~b ~o
           ~out:(Array.unsafe_get f_out q))
    done;
    for j = 0 to nb - 1 do
      let l = Array.unsafe_get sc_lens j and q = nl + j in
      let o = if i >= l then bit bits (i - l) else 0 in
      Array.unsafe_set f q
        (fold (Array.unsafe_get f q) ~top:(sc_log - 1) ~mask:sc_mask ~b ~o
           ~out:(Array.unsafe_get f_out q))
    done
  done

let compiled ?(n_lengths = 9) ?(max_len = 1024) () =
  {
    Predictor.Compiled.name = "mtage-sc-unlimited";
    storage_bits = 0;
    fill =
      (fun ~arena ~n ~verdicts -> fill ~n_lengths ~max_len ~arena ~n ~verdicts);
  }
