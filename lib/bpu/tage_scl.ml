type t = {
  sizes : Sizes.t;
  tage : Tage.t;
  sc : Stat_corrector.t;
  loop : Loop_pred.t;
  mutable ctx_pc : int;
  mutable ctx_tage_pred : bool;
}

let create sizes =
  {
    sizes;
    tage = Tage.create sizes.Sizes.tage;
    sc = Stat_corrector.create ~log_entries:sizes.Sizes.sc_log;
    loop = Loop_pred.create ~log_entries:sizes.Sizes.loop_log;
    ctx_pc = 0;
    ctx_tage_pred = false;
  }

let storage_bits t = Sizes.total_bits t.sizes

let predict t ~pc =
  let tage_pred = Tage.predict t.tage ~pc in
  let sc_pred =
    Stat_corrector.refine_conf t.sc ~conf:(Tage.confidence t.tage) ~pc
      ~tage_pred
  in
  (* allocation-free on the replay path: no option, no boxed optional *)
  let loop_code = Loop_pred.predict_code t.loop ~pc in
  t.ctx_pc <- pc;
  t.ctx_tage_pred <- tage_pred;
  if loop_code >= 0 then loop_code = 1 else sc_pred

let train t ~pc ~taken =
  if pc <> t.ctx_pc then invalid_arg "Tage_scl.train: mismatch";
  Loop_pred.train t.loop ~pc ~taken
    ~tage_mispredicted:(t.ctx_tage_pred <> taken);
  Stat_corrector.train t.sc ~pc ~taken;
  Tage.train t.tage ~pc ~taken

let spectate t ~pc ~taken =
  Stat_corrector.spectate t.sc ~taken;
  Tage.spectate t.tage ~pc ~taken

let predictor sizes =
  let t = create sizes in
  {
    Predictor.name = Printf.sprintf "tage-scl-%dKB" sizes.Sizes.budget_kb;
    predict = (fun ~pc -> predict t ~pc);
    train = (fun ~pc ~taken -> train t ~pc ~taken);
    spectate = (fun ~pc ~taken -> spectate t ~pc ~taken);
    storage_bits = storage_bits t;
    is_oracle = false;
  }

(* ------------------------------------------------------------------ *)
(* Flat arena kernel                                                   *)
(* ------------------------------------------------------------------ *)

(* The closure predictor above, rebuilt over the arena (DESIGN.md §15).
   Every index and tag hash reads only the PC and the direction history,
   and [spectate] pushes history too, so the global history of a run is
   the arena's taken bitmap: the bit leaving a length-L fold at event
   [i] is [Arena.taken a (i - L)], 0 before the run has L events.

   - Fold words.  Table k's index, tag and tag' folds are the fields at
     bits 0, 21 and 42 of one int; the corrector's four folds are the
     fields at bits 0, 16, 32 and 48 of another.  A word advances by one
     rotate of every field at once; outgoing bits come from a copy of
     the taken bitmap with [pad] zero bits in front, so no read needs an
     [i >= L] test.
   - Cells.  A tagged entry is one 4-byte cell of a table-major [Bytes]:
     the tag in bits 0-15 (0xFFFF = empty; tags are at most 15 bits),
     the 3-bit counter in bits 16-18 and the 2-bit usefulness in bits
     19-20.
   - Provider search.  Each table's tag test sets one bit of a hit mask
     without a branch; [resolve] maps the mask to the provider (the
     highest hit) and the alternate (the next one).
   - Counters step through the [step_*] tables, indexed by the counter
     and the outcome, instead of branching on the outcome.
   - The loop predictor ({!Loop_pred}) is a flat int array of [lp_*]
     fields, [loop_stride] ints per entry. *)

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] cell tbl c = Int32.to_int (get32 tbl (c lsl 2))
let[@inline] set_cell tbl c v = set32 tbl (c lsl 2) (Int32.of_int v)
let ctr_at = 16
let u_at = 19
let empty_cell = 0xFFFF lor (4 lsl ctr_at)

(* fold-word field offsets *)
let tag_at = 21
let tag'_at = 42
let sc_stride = 16

(* bit [i] of a taken bitmap *)
let[@inline] bit bits i =
  (Char.code (Bytes.unsafe_get bits (i lsr 3)) lsr (i land 7)) land 1

(* a TAGE fold word rotated: each field left by one, its top bit
   wrapping to its bit 0; [top_i] and [top_t] are the index and tag
   fields' top bits, tag' is one narrower than tag *)
let[@inline] rot w ~keep ~top_i ~top_t =
  (w lsl 1) land keep
  lor ((w lsr top_i) land 1)
  lor ((w lsr top_t) land (1 lsl tag_at))
  lor ((w lsr (top_t - 1)) land (1 lsl tag'_at))

(* [resolve.[m]] for a hit mask [m]: provider + 1 in the low nibble and
   alternate + 1 in the high one, 0 for none *)
let max_tables = 12

let resolve =
  let rec top m k =
    if k < 0 || (m lsr k) land 1 = 1 then k else top m (k - 1)
  in
  Bytes.init (1 lsl max_tables) (fun m ->
      let p = top m (max_tables - 1) in
      let a = if p < 0 then -1 else top m (p - 1) in
      Char.chr ((p + 1) lor ((a + 1) lsl 4)))

(* [step.[2c + b]] is counter [c] after outcome [b], saturating at 0 and
   [max] *)
let step ~max =
  Bytes.init (2 * (max + 1)) (fun j ->
      let c = j lsr 1 in
      Char.chr
        (if j land 1 = 1 then Int.min max (c + 1) else Int.max 0 (c - 1)))

(* the corrector's veto gate is the threshold times 4, 1 or 1/2 by the
   provider counter's confidence: [(threshold lsl gate_shift.[c]) lsr 1] *)
let gate_shift = Bytes.of_string "\003\003\001\000\000\001\003\003"

let step_2 = step ~max:3
let step_3 = step ~max:7
let step_4 = step ~max:15
let step_6 = step ~max:63
let[@inline] stepped tbl c b =
  Char.code (Bytes.unsafe_get tbl ((c lsl 1) lor b))

let[@inline] bump tbl c b =
  Bytes.unsafe_set tbl c
    (Bytes.unsafe_get step_6 ((Char.code (Bytes.unsafe_get tbl c) lsl 1) lor b))

(* loop-predictor entry fields, as in {!Loop_pred} *)
let loop_stride = 6
let lp_tag = 0
let lp_past = 1
let lp_cur = 2
let lp_conf = 3
let lp_dir = 4
let lp_age = 5
let loop_max_iter = 1023

(* the arena accessors and the byte writes below are unchecked *)
let check arena ~n ~verdicts =
  if n < 0 || n > Whisper_trace.Arena.length arena || Bytes.length verdicts < n
  then invalid_arg "Tage_scl.fill: n outside the arena or the verdicts"

let check_geometry sizes =
  let p = sizes.Sizes.tage in
  if p.Tage.n_tables < 1 || p.n_tables > max_tables then
    invalid_arg "Tage_scl.fill: n_tables outside 1..12";
  if p.log_entries < 3 || p.log_entries > tag_at then
    invalid_arg "Tage_scl.fill: log_entries outside 3..21";
  if p.tag_bits < 2 || p.tag_bits > 15 then
    invalid_arg "Tage_scl.fill: tag_bits outside 2..15";
  if sizes.sc_log < 1 || sizes.sc_log > sc_stride - 1 then
    invalid_arg "Tage_scl.fill: sc_log outside 1..15";
  if sizes.loop_log < 1 || sizes.loop_log > 16 then
    invalid_arg "Tage_scl.fill: loop_log outside 1..16"

let fill sizes ~arena ~n ~covered ~verdicts =
  let module A = Whisper_trace.Arena in
  check_geometry sizes;
  check arena ~n ~verdicts;
  if Bytes.length covered < n then
    invalid_arg "Tage_scl.fill: covered mask shorter than n";
  let pcs = arena.A.pc and bits = arena.A.taken in
  let p = sizes.Sizes.tage in
  let lens = Tage.lengths p in
  let l0, l1, l2, l3 =
    match Stat_corrector.hist_lens with
    | [| l0; l1; l2; l3 |] -> (l0, l1, l2, l3)
    | _ -> invalid_arg "Tage_scl.fill: the corrector needs four banks"
  in
  let nt = Array.length lens in
  let log_e = p.log_entries and tag_bits = p.tag_bits in
  let sc_log = sizes.sc_log in
  let idx_mask = (1 lsl log_e) - 1 and tag_mask = (1 lsl tag_bits) - 1 in
  let tbl = Bytes.create (4 * nt lsl log_e) in
  for c = 0 to (nt lsl log_e) - 1 do
    set_cell tbl c empty_cell
  done;
  let bim_mask = (1 lsl p.log_bimodal) - 1 in
  let bim = Bytes.make (bim_mask + 1) '\001' in
  let ctx_cell = Array.make nt 0 and ctx_tag = Array.make nt 0 in
  let rng = Whisper_util.Rng.create 0x7A6E in
  let use_alt = ref 8 and age_countdown = ref p.u_reset_period in
  let sc_mask = (1 lsl sc_log) - 1 in
  let sc = Bytes.make (5 lsl sc_log) ' ' in
  let threshold = ref Stat_corrector.initial_threshold and tc = ref 0 in
  let loop_mask = (1 lsl sizes.loop_log) - 1 in
  let loop_tag_at = 2 + sizes.loop_log in
  let lp = Array.make (loop_stride lsl sizes.loop_log) 0 in
  for e = 0 to loop_mask do
    lp.((loop_stride * e) + lp_tag) <- -1;
    lp.((loop_stride * e) + lp_dir) <- 1
  done;
  (* TAGE fold words: rotate every field left by one, its top bit
     wrapping to its bit 0; the incoming bit enters at each field's bit
     0 and the outgoing one at [out.(k)], its length mod the width *)
  let keep =
    ((1 lsl log_e) - 2)
    lor (((1 lsl tag_bits) - 2) lsl tag_at)
    lor (((1 lsl (tag_bits - 1)) - 2) lsl tag'_at)
  in
  let top_i = log_e - 1 and top_t = tag_bits - 1 in
  let ends = 1 lor (1 lsl tag_at) lor (1 lsl tag'_at) in
  let out =
    Array.map
      (fun l ->
        (1 lsl (l mod log_e))
        lor (1 lsl (tag_at + (l mod tag_bits)))
        lor (1 lsl (tag'_at + (l mod (tag_bits - 1)))))
      lens
  in
  let f = Array.make nt 0 in
  (* the corrector's fold word: four fields of one width *)
  let sc_ends = 1 lor (1 lsl 16) lor (1 lsl 32) lor (1 lsl 48) in
  let sc_keep = ((1 lsl sc_log) - 2) * sc_ends in
  let sc_top = sc_log - 1 in
  let o0 = l0 mod sc_log and o1 = 16 + (l1 mod sc_log)
  and o2 = 32 + (l2 mod sc_log) and o3 = 48 + (l3 mod sc_log) in
  let fsc = ref 0 in
  (* the corrector's lengths are short: their outgoing bits come from a
     shift register of recent outcomes, bit [m] = outcome [i - 1 - m] *)
  if Int.max (Int.max l0 l1) (Int.max l2 l3) > 62 then
    invalid_arg "Tage_scl.fill: corrector history longer than 62";
  let recent = ref 0 in
  (* the padded bitmap: bit [pad + j] is outcome [j], bits below [pad]
     are 0, so the bit leaving length L at event i is bit [i + back.(k)] *)
  let pad_bytes = (Array.fold_left Int.max 0 lens + 7) lsr 3 in
  let pad = 8 * pad_bytes in
  let padded = Bytes.make (pad_bytes + ((n + 7) lsr 3)) '\000' in
  Bytes.blit bits 0 padded pad_bytes ((n + 7) lsr 3);
  let back = Array.map (fun l -> pad - l) lens in
  for i = 0 to n - 1 do
    let b = bit bits i in
    let b_in = -b land ends in
    if Bytes.unsafe_get covered i = '\000' then begin
      let pc = Array.unsafe_get pcs i in
      let pc2 = pc lsr 2 in
      (* TAGE: hash every table, test its tag, advance its fold word *)
      let hits = ref 0 in
      for k = 0 to nt - 1 do
        let w = Array.unsafe_get f k in
        let c =
          (k lsl log_e)
          lor (pc2 lxor (pc lsr (log_e - (k land 3))) lxor w land idx_mask)
        in
        let tag =
          pc2 lxor (w lsr tag_at) lxor (w lsr (tag'_at - 1)) land tag_mask
        in
        Array.unsafe_set ctx_cell k c;
        Array.unsafe_set ctx_tag k tag;
        hits :=
          !hits lor ((((cell tbl c land 0xFFFF lxor tag) - 1) lsr 62) lsl k);
        Array.unsafe_set f k
          (rot w ~keep ~top_i ~top_t lxor b_in
          lxor (-bit padded (i + Array.unsafe_get back k)
               land Array.unsafe_get out k))
      done;
      let found = Char.code (Bytes.unsafe_get resolve !hits) in
      let provider = (found land 15) - 1 and alt = (found lsr 4) - 1 in
      let bi = pc2 land bim_mask in
      let base_pred = Char.code (Bytes.unsafe_get bim bi) lsr 1 in
      let alt_pred =
        if alt >= 0 then
          (cell tbl (Array.unsafe_get ctx_cell alt) lsr (ctr_at + 2)) land 1
        else base_pred
      in
      let p_word =
        if provider >= 0 then cell tbl (Array.unsafe_get ctx_cell provider)
        else 0
      in
      (* the provider's counter and usefulness, [ctr + 8 u] *)
      let p_cu = p_word lsr ctr_at in
      let provider_pred =
        if provider >= 0 then (p_cu lsr 2) land 1 else base_pred
      in
      (* weak (counter 3 or 4) and not useful; 0 when there is no provider *)
      let weak_new = (p_cu - 3) lor 1 = 1 in
      let tage_pred =
        if weak_new && !use_alt >= 8 then alt_pred else provider_pred
      in
      (* SC: the veto gate scales with the provider counter's confidence *)
      let gate =
        if provider < 0 then !threshold
        else
          (!threshold lsl Char.code (Bytes.unsafe_get gate_shift (p_cu land 7)))
          lsr 1
      in
      let ws = !fsc in
      let cb = 4 lsl sc_log + (pc2 land sc_mask) in
      let c0 = pc2 lxor ws land sc_mask in
      let c1 =
        (1 lsl sc_log) + (pc2 lxor (ws lsr 16) lxor 0x9E5 land sc_mask)
      in
      let c2 =
        (2 lsl sc_log) + (pc2 lxor (ws lsr 32) lxor (2 * 0x9E5) land sc_mask)
      in
      let c3 =
        (3 lsl sc_log) + (pc2 lxor (ws lsr 48) lxor (3 * 0x9E5) land sc_mask)
      in
      let s =
        (2
        * (Char.code (Bytes.unsafe_get sc cb)
          + Char.code (Bytes.unsafe_get sc c0)
          + Char.code (Bytes.unsafe_get sc c1)
          + Char.code (Bytes.unsafe_get sc c2)
          + Char.code (Bytes.unsafe_get sc c3)))
        - (5 * 63)
      in
      let sc_pred = lnot s lsr 62 in
      let sc_final =
        if sc_pred <> tage_pred && abs s > gate then sc_pred else tage_pred
      in
      (* the loop predictor overrides once confident *)
      let e = loop_stride * (pc2 land loop_mask) in
      let ltag = (pc lsr loop_tag_at) land 0x3FF in
      let l_hit = Array.unsafe_get lp (e + lp_tag) = ltag in
      let past = Array.unsafe_get lp (e + lp_past)
      and cur = Array.unsafe_get lp (e + lp_cur)
      and conf = Array.unsafe_get lp (e + lp_conf)
      and dir = Array.unsafe_get lp (e + lp_dir) in
      let final =
        if l_hit && conf >= 3 && past > 0 then
          if cur + 1 >= past then 1 - dir else dir
        else sc_final
      in
      Bytes.unsafe_set verdicts i (Char.unsafe_chr (1 - (final lxor b)));
      (* train the loop predictor *)
      if l_hit then begin
        let age = Array.unsafe_get lp (e + lp_age) in
        Array.unsafe_set lp (e + lp_age) (Int.min 7 (age + 1));
        if b = dir then
          if cur + 1 > loop_max_iter then begin
            (* not a bounded loop; drop confidence *)
            Array.unsafe_set lp (e + lp_conf) 0;
            Array.unsafe_set lp (e + lp_cur) 0;
            Array.unsafe_set lp (e + lp_past) 0
          end
          else Array.unsafe_set lp (e + lp_cur) (cur + 1)
        else begin
          (* iteration run ended *)
          if cur + 1 = past then
            Array.unsafe_set lp (e + lp_conf) (Int.min 7 (conf + 1))
          else begin
            Array.unsafe_set lp (e + lp_past) (cur + 1);
            Array.unsafe_set lp (e + lp_conf) 0
          end;
          Array.unsafe_set lp (e + lp_cur) 0
        end
      end
      else if tage_pred <> b then begin
        (* allocate if the resident entry is stale *)
        let age = Array.unsafe_get lp (e + lp_age) in
        if age = 0 || conf = 0 then begin
          Array.unsafe_set lp (e + lp_tag) ltag;
          Array.unsafe_set lp (e + lp_past) 0;
          Array.unsafe_set lp (e + lp_cur) 0;
          Array.unsafe_set lp (e + lp_conf) 0;
          Array.unsafe_set lp (e + lp_dir) b;
          Array.unsafe_set lp (e + lp_age) 3
        end
        else Array.unsafe_set lp (e + lp_age) (age - 1)
      end;
      (* train the corrector: threshold first, then the counters *)
      if sc_pred <> tage_pred then begin
        tc := !tc + if sc_pred = b then 1 else -1;
        if !tc <= -16 then begin
          threshold := Int.min 256 (!threshold * 2);
          tc := 0
        end
        else if !tc >= 16 then begin
          threshold := Int.max 6 (!threshold - 2);
          tc := 0
        end
      end;
      if sc_final <> b || abs s <= !threshold then begin
        bump sc cb b;
        bump sc c0 b;
        bump sc c1 b;
        bump sc c2 b;
        bump sc c3 b
      end;
      (* train TAGE *)
      if weak_new && provider_pred <> alt_pred then
        use_alt := stepped step_4 !use_alt (1 - (alt_pred lxor b));
      if provider >= 0 then begin
        let u = p_cu lsr 3 in
        let u =
          if provider_pred <> alt_pred then
            stepped step_2 u (1 - (provider_pred lxor b))
          else u
        in
        set_cell tbl
          (Array.unsafe_get ctx_cell provider)
          (p_word land 0xFFFF
          lor (stepped step_3 (p_cu land 7) b lsl ctr_at)
          lor (u lsl u_at))
      end;
      if alt < 0 then
        Bytes.unsafe_set bim bi
          (Bytes.unsafe_get step_2
             ((Char.code (Bytes.unsafe_get bim bi) lsl 1) lor b));
      (* allocate past the provider on a TAGE misprediction *)
      let start = provider + 1 in
      if tage_pred <> b && start < nt then begin
        let start =
          Int.min (nt - 1)
            (if Whisper_util.Rng.int rng 4 = 0 then start + 1 else start)
        in
        let k = ref start in
        while
          !k < nt && cell tbl (Array.unsafe_get ctx_cell !k) lsr u_at <> 0
        do
          incr k
        done;
        if !k < nt then
          set_cell tbl
            (Array.unsafe_get ctx_cell !k)
            (Array.unsafe_get ctx_tag !k lor ((3 + b) lsl ctr_at))
        else
          (* every entry from [start] is useful: age them *)
          for j = start to nt - 1 do
            let c = Array.unsafe_get ctx_cell j in
            set_cell tbl c (cell tbl c - (1 lsl u_at))
          done
      end;
      decr age_countdown;
      if !age_countdown = 0 then begin
        for c = 0 to (nt lsl log_e) - 1 do
          let w = cell tbl c in
          set_cell tbl c
            (w land ((1 lsl u_at) - 1) lor ((w lsr (u_at + 1)) lsl u_at))
        done;
        age_countdown := p.u_reset_period
      end
    end
    else
      (* a covered event only advances the folds *)
      for k = 0 to nt - 1 do
        Array.unsafe_set f k
          (rot (Array.unsafe_get f k) ~keep ~top_i ~top_t
          lxor b_in
          lxor (-bit padded (i + Array.unsafe_get back k)
               land Array.unsafe_get out k))
      done;
    let r = !recent in
    fsc :=
      (!fsc lsl 1) land sc_keep
      lor ((!fsc lsr sc_top) land sc_ends)
      lxor (-b land sc_ends)
      lxor (((r lsr (l0 - 1)) land 1) lsl o0)
      lxor (((r lsr (l1 - 1)) land 1) lsl o1)
      lxor (((r lsr (l2 - 1)) land 1) lsl o2)
      lxor (((r lsr (l3 - 1)) land 1) lsl o3);
    recent := (r lsl 1) lor b
  done

let hybrid sizes ~decide ~arena ~n ~verdicts =
  check arena ~n ~verdicts;
  let covered = Bytes.create n in
  for i = 0 to n - 1 do
    let d = decide i in
    if d < 0 then Bytes.unsafe_set covered i '\000'
    else begin
      Bytes.unsafe_set covered i '\001';
      Bytes.unsafe_set verdicts i
        (if d = bit arena.Whisper_trace.Arena.taken i then '\001'
         else '\000')
    end
  done;
  fill sizes ~arena ~n ~covered ~verdicts

let compiled sizes =
  {
    Predictor.Compiled.name =
      Printf.sprintf "tage-scl-%dKB" sizes.Sizes.budget_kb;
    storage_bits = Sizes.total_bits sizes;
    fill =
      (fun ~arena ~n ~verdicts ->
        fill sizes ~arena ~n ~covered:(Bytes.make n '\000') ~verdicts);
  }
