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

(* The closure predictor above, rebuilt over the arena.  Every index and
   tag hash reads only the PC and the direction history, and [spectate]
   pushes history too, so the global history of a run is the arena's
   taken bitmap: the bit leaving a length-L fold at event [i] is
   [Arena.taken a (i - L)] (0 before the run has L events), with no ring
   buffer.  All 3 * n_tables TAGE folds (index, tag, tag') and the
   corrector's folds live in one int array.  The tagged tables are flat
   byte arrays, table-major: 16-bit tags (0xFFFF = empty; [Sizes] caps
   tags at 14 bits), and 3-bit counters and 2-bit usefulness a byte
   each.  The corrector's banks and bias are one byte array of counters
   biased by +32.  The loop predictor is {!Loop_pred} itself. *)

external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let sat_inc c ~max = if c >= max then max else c + 1
let sat_dec c ~min = if c <= min then min else c - 1

let fold v ~top ~mask ~b ~o ~out =
  ((v lsl 1) lor (v lsr top)) land mask lxor b lxor (o lsl out)

(* bit [i] of an arena's taken bitmap *)
let[@inline] bit bits i =
  (Char.code (Bytes.unsafe_get bits (i lsr 3)) lsr (i land 7)) land 1

let bump b c ~taken ~max =
  let v = Char.code (Bytes.unsafe_get b c) in
  Bytes.unsafe_set b c
    (Char.unsafe_chr (if taken then sat_inc v ~max else sat_dec v ~min:0))

(* the arena accessors and the byte writes below are unchecked *)
let check arena ~n ~verdicts =
  if n < 0 || n > Whisper_trace.Arena.length arena || Bytes.length verdicts < n
  then invalid_arg "Tage_scl.fill: n outside the arena or the verdicts"

let fill sizes ~arena ~n ~covered ~verdicts =
  let module A = Whisper_trace.Arena in
  let pcs = arena.A.pc and bits = arena.A.taken in
  let p = sizes.Sizes.tage in
  if p.Tage.tag_bits < 2 || p.Tage.tag_bits > 15 then
    invalid_arg "Tage_scl.fill: tag_bits outside 2..15";
  check arena ~n ~verdicts;
  if Bytes.length covered < n then
    invalid_arg "Tage_scl.fill: covered mask shorter than n";
  let lens = Tage.lengths p and sc_lens = Stat_corrector.hist_lens in
  let nt = Array.length lens and nb = Array.length sc_lens in
  let log_e = p.log_entries and sc_log = sizes.sc_log in
  let idx_mask = (1 lsl log_e) - 1 and tag_mask = (1 lsl p.tag_bits) - 1 in
  let tags = Bytes.make (2 * nt lsl log_e) '\255' in
  let ctrs = Bytes.make (nt lsl log_e) '\004' in
  let us = Bytes.make (nt lsl log_e) '\000' in
  let bim_mask = (1 lsl p.log_bimodal) - 1 in
  let bim = Bytes.make (bim_mask + 1) '\001' in
  let ctx_cell = Array.make nt 0 and ctx_tag = Array.make nt 0 in
  let rng = Whisper_util.Rng.create 0x7A6E in
  let use_alt = ref 8 and age_countdown = ref p.u_reset_period in
  let sc_mask = (1 lsl sc_log) - 1 and bias_off = nb lsl sc_log in
  let sc = Bytes.make ((nb + 1) lsl sc_log) ' ' in
  let sc_cell = Array.make nb 0 in
  let threshold = ref Stat_corrector.initial_threshold and tc = ref 0 in
  let loop = Loop_pred.create ~log_entries:sizes.loop_log in
  (* folds: table k's index, tag and tag' folds at 3k .. 3k+2, then
     bank j's at 3 nt + j; [f_out] is where each one's outgoing bit lands *)
  let f = Array.make ((3 * nt) + nb) 0 in
  let f_out =
    Array.init ((3 * nt) + nb) (fun q ->
        if q >= 3 * nt then sc_lens.(q - (3 * nt)) mod sc_log
        else lens.(q / 3) mod [| log_e; p.tag_bits; p.tag_bits - 1 |].(q mod 3))
  in
  let t_top = p.tag_bits - 1 and sc_top = sc_log - 1 in
  for i = 0 to n - 1 do
    let b = bit bits i in
    let taken = b = 1 in
    if Bytes.unsafe_get covered i = '\000' then begin
      let pc = Array.unsafe_get pcs i in
      let pc2 = pc lsr 2 in
      (* TAGE: hashes, provider (longest match) and alternate *)
      for k = 0 to nt - 1 do
        let q = 3 * k in
        Array.unsafe_set ctx_cell k
          ((k lsl log_e)
          lor (pc2
              lxor (pc lsr (log_e - (k land 3)))
              lxor Array.unsafe_get f q
              land idx_mask));
        Array.unsafe_set ctx_tag k
          (pc2
          lxor Array.unsafe_get f (q + 1)
          lxor (Array.unsafe_get f (q + 2) lsl 1)
          land tag_mask)
      done;
      let provider = ref (-1) and alt = ref (-1) in
      let k = ref (nt - 1) in
      while !k >= 0 do
        if
          get16 tags (2 * Array.unsafe_get ctx_cell !k)
          = Array.unsafe_get ctx_tag !k
        then
          if !provider < 0 then provider := !k
          else begin
            alt := !k;
            k := 0
          end;
        decr k
      done;
      let provider = !provider and alt = !alt in
      let bi = pc2 land bim_mask in
      let base_pred = Char.code (Bytes.unsafe_get bim bi) >= 2 in
      let alt_pred =
        if alt >= 0 then
          Char.code (Bytes.unsafe_get ctrs (Array.unsafe_get ctx_cell alt)) >= 4
        else base_pred
      in
      let p_cell =
        if provider >= 0 then Array.unsafe_get ctx_cell provider else 0
      in
      let p_ctr = Char.code (Bytes.unsafe_get ctrs p_cell) in
      let provider_pred = if provider >= 0 then p_ctr >= 4 else base_pred in
      let weak_new =
        provider >= 0
        && (p_ctr = 3 || p_ctr = 4)
        && Bytes.unsafe_get us p_cell = '\000'
      in
      let tage_pred =
        if weak_new && !use_alt >= 8 then alt_pred else provider_pred
      in
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
          + (pc2 lxor Array.unsafe_get f ((3 * nt) + j) lxor (j * 0x9E5)
            land sc_mask)
        in
        Array.unsafe_set sc_cell j c;
        s := !s + (2 * Char.code (Bytes.unsafe_get sc c)) - 63
      done;
      let s = !s in
      let sc_pred = s >= 0 in
      let sc_final =
        if sc_pred <> tage_pred && abs s > gate then sc_pred else tage_pred
      in
      let loop_code = Loop_pred.predict_code loop ~pc in
      let final = if loop_code >= 0 then loop_code = 1 else sc_final in
      Bytes.unsafe_set verdicts i (if final = taken then '\001' else '\000');
      Loop_pred.train loop ~pc ~taken ~tage_mispredicted:(tage_pred <> taken);
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
      if sc_final <> taken || abs s <= !threshold then begin
        bump sc bias_cell ~taken ~max:63;
        for j = 0 to nb - 1 do
          bump sc (Array.unsafe_get sc_cell j) ~taken ~max:63
        done
      end;
      (* train TAGE *)
      if weak_new && provider_pred <> alt_pred then
        use_alt :=
          if alt_pred = taken then sat_inc !use_alt ~max:15
          else sat_dec !use_alt ~min:0;
      if provider >= 0 then begin
        bump ctrs p_cell ~taken ~max:7;
        if provider_pred <> alt_pred then
          bump us p_cell ~taken:(provider_pred = taken) ~max:3
      end;
      if alt < 0 then bump bim bi ~taken ~max:3;
      (* allocate past the provider on a TAGE misprediction *)
      let start = provider + 1 in
      if tage_pred <> taken && start < nt then begin
        let start =
          Int.min (nt - 1)
            (if Whisper_util.Rng.int rng 4 = 0 then start + 1 else start)
        in
        let k = ref start in
        while
          !k < nt
          && Bytes.unsafe_get us (Array.unsafe_get ctx_cell !k) <> '\000'
        do
          incr k
        done;
        if !k < nt then begin
          let c = Array.unsafe_get ctx_cell !k in
          set16 tags (2 * c) (Array.unsafe_get ctx_tag !k);
          Bytes.unsafe_set ctrs c (if taken then '\004' else '\003')
        end
        else
          for j = start to nt - 1 do
            bump us (Array.unsafe_get ctx_cell j) ~taken:false ~max:3
          done
      end;
      decr age_countdown;
      if !age_countdown = 0 then begin
        for c = 0 to Bytes.length us - 1 do
          Bytes.unsafe_set us c
            (Char.unsafe_chr (Char.code (Bytes.unsafe_get us c) lsr 1))
        done;
        age_countdown := p.u_reset_period
      end
    end;
    (* every event, covered or not, advances the folds *)
    for k = 0 to nt - 1 do
      let l = Array.unsafe_get lens k and q = 3 * k in
      let o = if i >= l then bit bits (i - l) else 0 in
      Array.unsafe_set f q
        (fold (Array.unsafe_get f q) ~top:(log_e - 1) ~mask:idx_mask ~b ~o
           ~out:(Array.unsafe_get f_out q));
      Array.unsafe_set f (q + 1)
        (fold (Array.unsafe_get f (q + 1)) ~top:t_top ~mask:tag_mask ~b ~o
           ~out:(Array.unsafe_get f_out (q + 1)));
      Array.unsafe_set f (q + 2)
        (fold (Array.unsafe_get f (q + 2)) ~top:(t_top - 1)
           ~mask:(tag_mask lsr 1) ~b ~o
           ~out:(Array.unsafe_get f_out (q + 2)))
    done;
    for j = 0 to nb - 1 do
      let l = Array.unsafe_get sc_lens j and q = (3 * nt) + j in
      let o = if i >= l then bit bits (i - l) else 0 in
      Array.unsafe_set f q
        (fold (Array.unsafe_get f q) ~top:sc_top ~mask:sc_mask ~b ~o
           ~out:(Array.unsafe_get f_out q))
    done
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
