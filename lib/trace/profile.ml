open Whisper_util

type branch_stat = {
  mutable execs : int;
  mutable taken_cnt : int;
  mutable mispred : int;
}

(* Packed sample layout: raw8 (1 byte), raw56 (7 bytes, the last 56 raw
   outcomes for techniques that consume unhashed history), one hash byte
   per series length, flags (1 byte: bit0 = taken, bit1 = predictor
   correct). *)
type samples = { mutable buf : Bytes.t; mutable n : int; mutable seen : int }

type t = {
  p_lengths : int array;
  chunk : int;
  record_bytes : int;
  stats : (int, branch_stat) Hashtbl.t;
  samples : (int, samples) Hashtbl.t;
  mutable total_instrs : int;
  mutable total_branches : int;
  mutable total_mispred : int;
}

let lengths t = t.p_lengths
let n_lengths t = Array.length t.p_lengths
let total_instrs t = t.total_instrs
let total_branches t = t.total_branches
let total_mispred t = t.total_mispred

let stat t ~pc = Hashtbl.find_opt t.stats pc
let iter_stats t ~f = Hashtbl.iter (fun pc s -> f ~pc s) t.stats
let n_static_branches t = Hashtbl.length t.stats

let mpki t =
  if t.total_instrs = 0 then 0.0
  else 1000.0 *. float_of_int t.total_mispred /. float_of_int t.total_instrs

let candidates t =
  let arr =
    Hashtbl.fold (fun pc _ acc -> pc :: acc) t.samples []
    |> Array.of_list
  in
  Array.sort
    (fun a b ->
      let ma = match stat t ~pc:a with Some s -> s.mispred | None -> 0 in
      let mb = match stat t ~pc:b with Some s -> s.mispred | None -> 0 in
      match compare mb ma with 0 -> compare a b | c -> c)
    arr;
  arr

let n_samples t ~pc =
  match Hashtbl.find_opt t.samples pc with Some s -> s.n | None -> 0

let iter_samples t ~pc ~f =
  match Hashtbl.find_opt t.samples pc with
  | None -> ()
  | Some s ->
      let rb = t.record_bytes in
      let nl = Array.length t.p_lengths in
      for i = 0 to s.n - 1 do
        let base = i * rb in
        let raw8 = Char.code (Bytes.unsafe_get s.buf base) in
        let raw56 = ref 0 in
        for b = 6 downto 0 do
          raw56 := (!raw56 lsl 8) lor Char.code (Bytes.unsafe_get s.buf (base + 1 + b))
        done;
        let hash idx =
          if idx < 0 || idx >= nl then invalid_arg "Profile.hash index";
          Char.code (Bytes.unsafe_get s.buf (base + 8 + idx))
        in
        let flags = Char.code (Bytes.unsafe_get s.buf (base + 8 + nl)) in
        f ~raw8 ~raw56:!raw56 ~hash ~taken:(flags land 1 = 1)
          ~correct:(flags land 2 = 2)
      done

(* Zero-copy window into a branch's packed sample records, for consumers
   that decode the fields inline (the single-pass tabulation in
   History_select reads only the hash bytes and flags, skipping the raw56
   reconstruction iter_samples pays for every record). *)
type raw_view = {
  buf : Bytes.t;
  n : int;
  record_bytes : int;
  hash_off : int;
  flags_off : int;
}

let raw_view t ~pc =
  match Hashtbl.find_opt t.samples pc with
  | None -> None
  | Some s ->
      Some
        {
          buf = s.buf;
          n = s.n;
          record_bytes = t.record_bytes;
          hash_off = 8;
          flags_off = 8 + Array.length t.p_lengths;
        }

let create_empty ?(chunk = 8) ~lengths () =
  {
    p_lengths = Array.copy lengths;
    chunk;
    record_bytes = 1 + 7 + Array.length lengths + 1;
    stats = Hashtbl.create 4096;
    samples = Hashtbl.create 512;
    total_instrs = 0;
    total_branches = 0;
    total_mispred = 0;
  }

let record_event t ~pc ~taken ~correct ~instrs =
  let s =
    match Hashtbl.find_opt t.stats pc with
    | Some s -> s
    | None ->
        let s = { execs = 0; taken_cnt = 0; mispred = 0 } in
        Hashtbl.add t.stats pc s;
        s
  in
  s.execs <- s.execs + 1;
  if taken then s.taken_cnt <- s.taken_cnt + 1;
  if not correct then s.mispred <- s.mispred + 1;
  t.total_instrs <- t.total_instrs + instrs;
  t.total_branches <- t.total_branches + 1;
  if not correct then t.total_mispred <- t.total_mispred + 1

let write_sample t (s : samples) ~slot ~raw8 ~raw56 ~hashes ~taken ~correct =
  let nl = Array.length t.p_lengths in
  let need = (slot + 1) * t.record_bytes in
  if need > Bytes.length s.buf then begin
    let nb = Bytes.create (max (2 * Bytes.length s.buf) need) in
    Bytes.blit s.buf 0 nb 0 (s.n * t.record_bytes);
    s.buf <- nb
  end;
  let base = slot * t.record_bytes in
  Bytes.unsafe_set s.buf base (Char.unsafe_chr (raw8 land 0xFF));
  for b = 0 to 6 do
    Bytes.unsafe_set s.buf (base + 1 + b)
      (Char.unsafe_chr ((raw56 lsr (8 * b)) land 0xFF))
  done;
  for i = 0 to nl - 1 do
    Bytes.unsafe_set s.buf (base + 8 + i) (Char.unsafe_chr (hashes.(i) land 0xFF))
  done;
  let flags = (if taken then 1 else 0) lor if correct then 2 else 0 in
  Bytes.unsafe_set s.buf (base + 8 + nl) (Char.unsafe_chr flags)

let new_slot (t : t) = { buf = Bytes.create (t.record_bytes * 64); n = 0; seen = 0 }

let sample_slot t pc =
  match Hashtbl.find_opt t.samples pc with
  | Some s -> s
  | None ->
      let s = new_slot t in
      Hashtbl.add t.samples pc s;
      s

let restore_stat t ~pc ~execs ~taken_cnt ~mispred =
  Hashtbl.replace t.stats pc { execs; taken_cnt; mispred }

let set_totals t ~instrs ~branches ~mispred =
  t.total_instrs <- instrs;
  t.total_branches <- branches;
  t.total_mispred <- mispred

let add_sample ?(raw56 = 0) t ~pc ~raw8 ~hashes ~taken ~correct =
  if Array.length hashes <> Array.length t.p_lengths then
    invalid_arg "Profile.add_sample";
  let s = sample_slot t pc in
  write_sample t s ~slot:s.n ~raw8 ~raw56 ~hashes ~taken ~correct;
  s.n <- s.n + 1;
  s.seen <- s.seen + 1

(* Vitter's reservoir sampling: keeps a uniform sample of each branch's
   executions, so the profile reflects steady-state predictor behaviour
   rather than the warm-up prefix. *)
let reservoir_sample t rng s ~max_samples ~raw8 ~raw56 ~hashes ~taken ~correct =
  s.seen <- s.seen + 1;
  if s.n < max_samples then begin
    write_sample t s ~slot:s.n ~raw8 ~raw56 ~hashes ~taken ~correct;
    s.n <- s.n + 1
  end
  else begin
    let j = Rng.int rng s.seen in
    if j < max_samples then
      write_sample t s ~slot:j ~raw8 ~raw56 ~hashes ~taken ~correct
  end

(* Dense branch ids: the arena's blocks numbered by first occurrence.
   Both passes count into arrays indexed by id, where a per-event
   [Hashtbl] lookup by pc used to be.  Each block must carry one pc and
   each pc one block, so counting by block is counting by pc; an arena
   that breaks this (a corrupt cache entry can) is refused, as is one
   whose block ids would size the id table past the arena's own size. *)
type ids = {
  id_of_block : int array;
  pc_of_id : int array;  (* first [k] entries used *)
  k : int;
}

let dense_ids (arena : Arena.t) ~events =
  let blocks = arena.block and pcs = arena.pc in
  let max_block = ref (-1) in
  for i = 0 to events - 1 do
    let b = Array.unsafe_get blocks i in
    if b < 0 then invalid_arg "Profile: negative block id";
    if b > !max_block then max_block := b
  done;
  if !max_block > (4 * events) + 65_536 then
    invalid_arg "Profile: block ids far beyond the arena";
  let id_of_block = Array.make (!max_block + 1) (-1) in
  let pc_of_id = Array.make (min events (!max_block + 1)) 0 in
  let k = ref 0 in
  for i = 0 to events - 1 do
    let b = Array.unsafe_get blocks i and pc = Array.unsafe_get pcs i in
    let id = Array.unsafe_get id_of_block b in
    if id < 0 then begin
      Array.unsafe_set id_of_block b !k;
      Array.unsafe_set pc_of_id !k pc;
      incr k
    end
    else if Array.unsafe_get pc_of_id id <> pc then
      invalid_arg "Profile: a block with two branch pcs"
  done;
  (* a generated program numbers its blocks in address order, so one scan
     in block order finds its pcs rising; anything else is sorted *)
  let last = ref min_int and rising = ref true in
  Array.iter
    (fun id ->
      if id >= 0 then begin
        if pc_of_id.(id) <= !last then rising := false;
        last := pc_of_id.(id)
      end)
    id_of_block;
  if not !rising then begin
    let sorted = Array.sub pc_of_id 0 !k in
    Array.sort Int.compare sorted;
    for j = 1 to !k - 1 do
      if sorted.(j) = sorted.(j - 1) then
        invalid_arg "Profile: a branch pc in two blocks"
    done
  end;
  { id_of_block; pc_of_id; k = !k }

let[@inline] bit bits i =
  (Char.code (Bytes.unsafe_get bits (i lsr 3)) lsr (i land 7)) land 1

(* The one collection core.  Pass 1 aggregates per-branch statistics and
   pass 2 records samples for the candidates, both against [verdicts]
   (byte [i] non-zero when the baseline predicted event [i] correctly):
   a fresh deterministic predictor returns the same verdicts on every
   replay, so one run of it serves both passes.  The profiler
   reconstructs hashed histories from the event stream alone — it never
   peeks at the workload model's internals: a length-L fold reads its
   outgoing bit at event [i] as the arena's taken bit [i - L], and the
   raw windows are a 56-bit shift register.  [stats] and [samples] are
   filled in first-occurrence order, the order per-event insertion
   produced, so the tables and their [Profile_io] bytes are unchanged. *)
let collect_verdicts ?(max_candidates = 2048) ?(min_mispred = 8)
    ?(max_samples = 512) ?(chunk = 8) ~lengths ~events ~arena ~verdicts () =
  if chunk <= 0 || chunk > 62 || Array.exists (fun l -> l <= 0) lengths then
    invalid_arg "Profile.collect: bad chunk or length series";
  let events = max 0 events in
  if events > Arena.length arena then
    invalid_arg "Profile.collect_arena: events exceeds arena length";
  if Bytes.length verdicts < events then
    invalid_arg "Profile.collect_verdicts: fewer verdicts than events";
  let t = create_empty ~chunk ~lengths () in
  let { id_of_block; pc_of_id; k } = dense_ids arena ~events in
  (* the arena's arrays hold at least [events] entries, and every block
     in them has an id below [k] *)
  let blocks = arena.Arena.block and instrs = arena.Arena.instrs in
  let bits = arena.Arena.taken in
  let execs = Array.make k 0 and taken_cnt = Array.make k 0 in
  let mispred = Array.make k 0 in
  let total_instrs = ref 0 and total_mispred = ref 0 in
  for i = 0 to events - 1 do
    let id = Array.unsafe_get id_of_block (Array.unsafe_get blocks i) in
    let tk = bit bits i and wrong = Bool.to_int (Bytes.unsafe_get verdicts i = '\000') in
    Array.unsafe_set execs id (Array.unsafe_get execs id + 1);
    Array.unsafe_set taken_cnt id (Array.unsafe_get taken_cnt id + tk);
    Array.unsafe_set mispred id (Array.unsafe_get mispred id + wrong);
    total_instrs := !total_instrs + Array.unsafe_get instrs i;
    total_mispred := !total_mispred + wrong
  done;
  for id = 0 to k - 1 do
    Hashtbl.add t.stats pc_of_id.(id)
      { execs = execs.(id); taken_cnt = taken_cnt.(id); mispred = mispred.(id) }
  done;
  set_totals t ~instrs:!total_instrs ~branches:events ~mispred:!total_mispred;
  (* Candidate selection: most-mispredicting branches first. *)
  let ranked =
    List.init k Fun.id
    |> List.filter (fun id -> mispred.(id) >= min_mispred)
    |> List.sort (fun a b ->
           match Int.compare mispred.(b) mispred.(a) with
           | 0 -> Int.compare pc_of_id.(a) pc_of_id.(b)
           | c -> c)
  in
  let none = { buf = Bytes.empty; n = 0; seen = 0 } in
  let slots = Array.make k none in
  List.iteri (fun r id -> if r < max_candidates then slots.(id) <- new_slot t) ranked;
  for id = 0 to k - 1 do
    if slots.(id) != none then Hashtbl.add t.samples pc_of_id.(id) slots.(id)
  done;
  (* Pass 2: replay the same trace, recording samples for candidates. *)
  let nl = Array.length lengths in
  let folds = Array.make nl 0 in
  let fold_mask = Bitops.mask chunk and top = chunk - 1 in
  let out_pos = Array.map (fun len -> len mod chunk) lengths in
  let raw = ref 0 in
  let rng = Rng.create 0x5EED5 in
  for i = 0 to events - 1 do
    let b = bit bits i in
    let s = Array.unsafe_get slots (Array.unsafe_get id_of_block (Array.unsafe_get blocks i)) in
    if s != none then
      reservoir_sample t rng s ~max_samples ~raw8:(!raw land 0xFF) ~raw56:!raw
        ~hashes:folds ~taken:(b = 1)
        ~correct:(Bytes.unsafe_get verdicts i <> '\000');
    for k = 0 to nl - 1 do
      let len = Array.unsafe_get lengths k in
      let out = if i < len then 0 else bit bits (i - len) in
      let v = Array.unsafe_get folds k in
      Array.unsafe_set folds k
        (((v lsl 1) lor (v lsr top)) land fold_mask
        lxor b
        lxor (out lsl Array.unsafe_get out_pos k))
    done;
    raw := ((!raw lsl 1) lor b) land 0xFF_FFFF_FFFF_FFFF
  done;
  t

let collect_arena ?max_candidates ?min_mispred ?max_samples ?chunk ~lengths
    ~events ~arena ~make_predictor () =
  if events > Arena.length arena then
    invalid_arg "Profile.collect_arena: events exceeds arena length";
  let n = Int.max 0 events in
  let verdicts = Bytes.create n in
  let predict = make_predictor () in
  for i = 0 to n - 1 do
    Bytes.unsafe_set verdicts i
      (if predict ~pc:(Arena.pc arena i) ~taken:(Arena.taken arena i) then
         '\001'
       else '\000')
  done;
  collect_verdicts ?max_candidates ?min_mispred ?max_samples ?chunk ~lengths
    ~events ~arena ~verdicts ()

let collect ?max_candidates ?min_mispred ?max_samples ?chunk ~lengths ~events
    ~make_source ~make_predictor () =
  let arena = Arena.of_source ~events:(max 0 events) (make_source ()) in
  collect_arena ?max_candidates ?min_mispred ?max_samples ?chunk ~lengths
    ~events ~arena ~make_predictor ()

let merge profiles =
  match profiles with
  | [] -> invalid_arg "Profile.merge: empty list"
  | first :: _ ->
      List.iter
        (fun p ->
          if p.p_lengths <> first.p_lengths then
            invalid_arg "Profile.merge: mismatched length series")
        profiles;
      let out = create_empty ~chunk:first.chunk ~lengths:first.p_lengths () in
      List.iter
        (fun p ->
          Hashtbl.iter
            (fun pc (s : branch_stat) ->
              let d =
                match Hashtbl.find_opt out.stats pc with
                | Some d -> d
                | None ->
                    let d = { execs = 0; taken_cnt = 0; mispred = 0 } in
                    Hashtbl.add out.stats pc d;
                    d
              in
              d.execs <- d.execs + s.execs;
              d.taken_cnt <- d.taken_cnt + s.taken_cnt;
              d.mispred <- d.mispred + s.mispred)
            p.stats;
          out.total_instrs <- out.total_instrs + p.total_instrs;
          out.total_branches <- out.total_branches + p.total_branches;
          out.total_mispred <- out.total_mispred + p.total_mispred;
          Hashtbl.iter
            (fun pc (_ : samples) ->
              let nl = Array.length out.p_lengths in
              let hashes = Array.make nl 0 in
              iter_samples p ~pc ~f:(fun ~raw8 ~raw56 ~hash ~taken ~correct ->
                  for i = 0 to nl - 1 do
                    hashes.(i) <- hash i
                  done;
                  add_sample ~raw56 out ~pc ~raw8 ~hashes ~taken ~correct))
            p.samples)
        profiles;
      out
