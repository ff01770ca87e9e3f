open Whisper_util

type params = {
  n_tables : int;
  log_entries : int;
  tag_bits : int;
  min_len : int;
  max_len : int;
  log_bimodal : int;
  u_reset_period : int;
}

let default_params =
  {
    n_tables = 12;
    log_entries = 11;
    tag_bits = 9;
    min_len = 8;
    max_len = 1024;
    log_bimodal = 13;
    u_reset_period = 1 lsl 18;
  }

type table = {
  len : int;
  tags : int array;
  ctrs : Bytes.t;  (* 3-bit counters biased by +4: 0..7, taken when >= 4 *)
  us : Bytes.t;  (* 2-bit usefulness *)
  f_idx : History.Folded.t;
  f_tag0 : History.Folded.t;
  f_tag1 : History.Folded.t;
}

type t = {
  p : params;
  idx_mask : int;
  tag_mask : int;
  tables : table array;
  base : Bimodal.table;
  hist : History.t;
  all_folded : History.Folded.t array;  (* flattened, for push_all *)
  rng : Rng.t;  (* allocation tie-breaking, as in reference TAGE *)
  mutable use_alt_on_na : int;  (* 4-bit: prefer altpred for weak new entries *)
  mutable trains : int;
  mutable age_countdown : int;
      (* trains until the next usefulness aging: hits 0 exactly when
         [trains mod u_reset_period = 0], without the per-train division *)
  (* predict-time context *)
  ctx_idx : int array;
  ctx_tag : int array;
  mutable ctx_provider : int;
  mutable ctx_alt : int;
  mutable ctx_provider_pred : bool;
  mutable ctx_alt_pred : bool;
  mutable ctx_pred : bool;
  mutable ctx_weak_new : bool;
  mutable ctx_pc : int;
}

let history_lengths t = Array.map (fun tb -> tb.len) t.tables

let lengths p =
  if p.n_tables = 1 then [| p.max_len |]
  else Geometric.series ~a:p.min_len ~n:p.max_len ~m:p.n_tables

let create p =
  if p.n_tables < 1 then invalid_arg "Tage.create";
  let lengths = lengths p in
  let entries = 1 lsl p.log_entries in
  let hist = History.create ~depth:(max 64 (2 * p.max_len)) in
  let tables =
    Array.map
      (fun len ->
        {
          len;
          tags = Array.make entries (-1);
          ctrs = Bytes.make entries '\004';
          us = Bytes.make entries '\000';
          f_idx = History.Folded.create ~len ~chunk:p.log_entries;
          f_tag0 = History.Folded.create ~len ~chunk:p.tag_bits;
          f_tag1 = History.Folded.create ~len ~chunk:(p.tag_bits - 1);
        })
      lengths
  in
  let all_folded =
    Array.concat
      (Array.to_list
         (Array.map (fun tb -> [| tb.f_idx; tb.f_tag0; tb.f_tag1 |]) tables))
  in
  {
    p;
    idx_mask = entries - 1;
    tag_mask = (1 lsl p.tag_bits) - 1;
    tables;
    base = Bimodal.create_table ~log_entries:p.log_bimodal;
    hist;
    all_folded;
    rng = Rng.create 0x7A6E;
    use_alt_on_na = 8;
    trains = 0;
    age_countdown = p.u_reset_period;
    ctx_idx = Array.make p.n_tables 0;
    ctx_tag = Array.make p.n_tables 0;
    ctx_provider = -1;
    ctx_alt = -1;
    ctx_provider_pred = false;
    ctx_alt_pred = false;
    ctx_pred = false;
    ctx_weak_new = false;
    ctx_pc = 0;
  }

let storage_bits t =
  let per_entry = t.p.tag_bits + 3 + 2 in
  (t.p.n_tables * (t.idx_mask + 1) * per_entry) + Bimodal.bits t.base

let ctr_taken c = Char.code c >= 4
let ctr_weak c = Char.code c = 3 || Char.code c = 4

let predict t ~pc =
  let n = t.p.n_tables in
  t.ctx_pc <- pc;
  (* per-table index hash: pc folded with the table's folded history;
     tag hash: pc folded with the two tag-width folds.  The per-table
     record and the context arrays are fetched once — every index below
     is < n or < table entries by construction, so the unchecked reads
     are safe *)
  let tables = t.tables in
  let ctx_idx = t.ctx_idx and ctx_tag = t.ctx_tag in
  let log_entries = t.p.log_entries in
  let pc2 = pc lsr 2 in
  for i = 0 to n - 1 do
    let tb = Array.unsafe_get tables i in
    Array.unsafe_set ctx_idx i
      (pc2
      lxor (pc lsr (log_entries - (i land 3)))
      lxor History.Folded.value tb.f_idx
      land t.idx_mask);
    Array.unsafe_set ctx_tag i
      (pc2
      lxor History.Folded.value tb.f_tag0
      lxor (History.Folded.value tb.f_tag1 lsl 1)
      land t.tag_mask)
  done;
  (* find provider (longest history match) and alternate (next match) *)
  let provider = ref (-1) and alt = ref (-1) in
  let i = ref (n - 1) in
  while !i >= 0 do
    if
      Array.unsafe_get (Array.unsafe_get tables !i).tags
        (Array.unsafe_get ctx_idx !i)
      = Array.unsafe_get ctx_tag !i
    then begin
      if !provider < 0 then provider := !i
      else if !alt < 0 then begin
        alt := !i;
        i := 0
      end
    end;
    decr i
  done;
  let base_pred = Bimodal.predict_t t.base ~pc in
  let alt_pred =
    if !alt >= 0 then
      ctr_taken (Bytes.unsafe_get t.tables.(!alt).ctrs t.ctx_idx.(!alt))
    else base_pred
  in
  let pred, weak_new =
    if !provider >= 0 then begin
      let tb = t.tables.(!provider) in
      let c = Bytes.unsafe_get tb.ctrs t.ctx_idx.(!provider) in
      let u = Char.code (Bytes.unsafe_get tb.us t.ctx_idx.(!provider)) in
      let weak_new = ctr_weak c && u = 0 in
      let p_pred = ctr_taken c in
      t.ctx_provider_pred <- p_pred;
      if weak_new && t.use_alt_on_na >= 8 then (alt_pred, weak_new)
      else (p_pred, weak_new)
    end
    else begin
      t.ctx_provider_pred <- base_pred;
      (base_pred, false)
    end
  in
  t.ctx_provider <- !provider;
  t.ctx_alt <- !alt;
  t.ctx_alt_pred <- alt_pred;
  t.ctx_pred <- pred;
  t.ctx_weak_new <- weak_new;
  pred

let confidence t =
  if t.ctx_provider < 0 then `Med
  else
    let c =
      Char.code
        (Bytes.unsafe_get t.tables.(t.ctx_provider).ctrs
           t.ctx_idx.(t.ctx_provider))
    in
    match abs ((2 * c) - 7) with 7 | 5 -> `High | 3 -> `Med | _ -> `Low

let update_ctr bytes i ~taken =
  let c = Char.code (Bytes.unsafe_get bytes i) in
  Bytes.unsafe_set bytes i
    (Char.unsafe_chr (Counters.update c ~taken ~min:0 ~max:7))

let update_u tb i ~delta =
  let u = Char.code (Bytes.unsafe_get tb.us i) in
  let u = if delta > 0 then Counters.inc u ~max:3 else Counters.dec u ~min:0 in
  Bytes.unsafe_set tb.us i (Char.unsafe_chr u)

let age_us t =
  Array.iter
    (fun tb ->
      for i = 0 to t.idx_mask do
        let u = Char.code (Bytes.unsafe_get tb.us i) in
        Bytes.unsafe_set tb.us i (Char.unsafe_chr (u lsr 1))
      done)
    t.tables

let allocate t ~taken =
  (* allocate in a table longer than the provider whose entry is not
     useful; start one past the provider with a random skip to spread
     allocations (reference TAGE behaviour). *)
  let n = t.p.n_tables in
  let start = t.ctx_provider + 1 in
  if start < n then begin
    let start = start + if Rng.int t.rng 4 = 0 then 1 else 0 in
    let start = min start (n - 1) in
    let allocated = ref false in
    let i = ref start in
    while (not !allocated) && !i < n do
      let tb = t.tables.(!i) in
      let idx = t.ctx_idx.(!i) in
      if Char.code (Bytes.unsafe_get tb.us idx) = 0 then begin
        tb.tags.(idx) <- t.ctx_tag.(!i);
        Bytes.unsafe_set tb.ctrs idx (if taken then '\004' else '\003');
        allocated := true
      end
      else incr i
    done;
    if not !allocated then
      for j = start to n - 1 do
        update_u t.tables.(j) t.ctx_idx.(j) ~delta:(-1)
      done
  end

let train t ~pc ~taken =
  if pc <> t.ctx_pc then invalid_arg "Tage.train: predict/train mismatch";
  let correct = t.ctx_pred = taken in
  (* use-alt-on-newly-allocated bookkeeping *)
  if
    t.ctx_provider >= 0 && t.ctx_weak_new
    && t.ctx_provider_pred <> t.ctx_alt_pred
  then begin
    if t.ctx_alt_pred = taken then
      t.use_alt_on_na <- Counters.inc t.use_alt_on_na ~max:15
    else t.use_alt_on_na <- Counters.dec t.use_alt_on_na ~min:0
  end;
  (* provider counter update *)
  if t.ctx_provider >= 0 then begin
    let tb = t.tables.(t.ctx_provider) in
    let idx = t.ctx_idx.(t.ctx_provider) in
    update_ctr tb.ctrs idx ~taken;
    if t.ctx_provider_pred <> t.ctx_alt_pred then
      update_u tb idx ~delta:(if t.ctx_provider_pred = taken then 1 else -1);
    (* base is trained as the fallback alternate *)
    if t.ctx_alt < 0 then Bimodal.update_t t.base ~pc ~taken
  end
  else Bimodal.update_t t.base ~pc ~taken;
  (* allocation on misprediction *)
  if not correct then allocate t ~taken;
  (* graceful aging of usefulness *)
  t.trains <- t.trains + 1;
  t.age_countdown <- t.age_countdown - 1;
  if t.age_countdown = 0 then begin
    age_us t;
    t.age_countdown <- t.p.u_reset_period
  end;
  History.push_all t.hist t.all_folded taken

let spectate t ~pc:_ ~taken = History.push_all t.hist t.all_folded taken

let predictor p =
  let t = create p in
  {
    Predictor.name = Printf.sprintf "tage-%dt-2^%d" p.n_tables p.log_entries;
    predict = (fun ~pc -> predict t ~pc);
    train = (fun ~pc ~taken -> train t ~pc ~taken);
    spectate = (fun ~pc ~taken -> spectate t ~pc ~taken);
    storage_bits = storage_bits t;
    is_oracle = false;
  }
