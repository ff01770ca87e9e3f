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

let sample_slot t pc =
  match Hashtbl.find_opt t.samples pc with
  | Some s -> s
  | None ->
      let s = { buf = Bytes.create (t.record_bytes * 64); n = 0; seen = 0 } in
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
let reservoir_sample t rng ~pc ~max_samples ~raw8 ~raw56 ~hashes ~taken ~correct =
  let s = sample_slot t pc in
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

(* Shared two-pass core.  [iter] replays the same [events]-long event
   stream from the start on every call, invoking its callback once per
   event — the closure path instantiates a fresh source each time, the
   arena path walks the packed buffers by index.  Keeping one core means
   the two paths produce byte-identical profiles by construction. *)
let collect_core ?(max_candidates = 2048) ?(min_mispred = 8)
    ?(max_samples = 512) ?(chunk = 8) ~lengths ~events ~iter ~make_predictor
    () =
  if chunk <= 0 || chunk > 62 || Array.exists (fun l -> l <= 0) lengths then
    invalid_arg "Profile.collect: bad chunk or length series";
  let t = create_empty ~chunk ~lengths () in
  (* Pass 1: aggregate statistics against a fresh baseline predictor. *)
  let predict = make_predictor () in
  iter (fun ~pc ~taken ~instrs ->
      let correct = predict ~pc ~taken in
      record_event t ~pc ~taken ~correct ~instrs);
  (* Candidate selection: most-mispredicting branches first. *)
  let ranked =
    Hashtbl.fold (fun pc s acc -> (pc, s.mispred) :: acc) t.stats []
    |> List.filter (fun (_, m) -> m >= min_mispred)
    |> List.sort (fun (a, ma) (b, mb) ->
           match compare mb ma with 0 -> compare a b | c -> c)
  in
  let candidate_set = Hashtbl.create max_candidates in
  List.iteri
    (fun i (pc, _) ->
      if i < max_candidates then Hashtbl.replace candidate_set pc ())
    ranked;
  (* Pass 2: replay the same trace, recording samples for candidates.  The
     profiler reconstructs hashed histories from the event stream alone —
     it never peeks at the workload model's internals.  The stream's
     outcomes go into a taken bitmap as they arrive, so a length-L fold
     reads its outgoing bit at event [i] as bit [i - L]; the raw windows
     are a 56-bit shift register. *)
  let predict = make_predictor () in
  let nl = Array.length lengths in
  let folds = Array.make nl 0 in
  let fold_mask = Bitops.mask chunk in
  let out_pos = Array.map (fun len -> len mod chunk) lengths in
  let bits = Bytes.make ((max 0 events + 7) / 8) '\000' in
  let raw = ref 0 and i = ref 0 in
  let rng = Rng.create 0x5EED5 in
  iter (fun ~pc ~taken ~instrs:_ ->
      let correct = predict ~pc ~taken in
      if Hashtbl.mem candidate_set pc then
        reservoir_sample t rng ~pc ~max_samples ~raw8:(!raw land 0xFF)
          ~raw56:!raw ~hashes:folds ~taken ~correct;
      let b = Bool.to_int taken and j = !i in
      for k = 0 to nl - 1 do
        let len = Array.unsafe_get lengths k in
        let out =
          if j < len then 0
          else
            (Char.code (Bytes.unsafe_get bits ((j - len) lsr 3))
            lsr ((j - len) land 7))
            land 1
        in
        let v = Array.unsafe_get folds k in
        Array.unsafe_set folds k
          (((v lsl 1) lor (v lsr (chunk - 1))) land fold_mask
          lxor b
          lxor (out lsl Array.unsafe_get out_pos k))
      done;
      if taken then
        Bytes.unsafe_set bits (j lsr 3)
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get bits (j lsr 3))
             lor (1 lsl (j land 7))));
      raw := ((!raw lsl 1) lor b) land 0xFF_FFFF_FFFF_FFFF;
      i := j + 1);
  t

let collect ?max_candidates ?min_mispred ?max_samples ?chunk ~lengths ~events
    ~make_source ~make_predictor () =
  let iter f =
    let src = make_source () in
    for _ = 1 to events do
      let e = src () in
      f ~pc:e.Branch.pc ~taken:e.Branch.taken ~instrs:e.Branch.instrs
    done
  in
  collect_core ?max_candidates ?min_mispred ?max_samples ?chunk ~lengths
    ~events ~iter ~make_predictor ()

let collect_arena ?max_candidates ?min_mispred ?max_samples ?chunk ~lengths
    ~events ~arena ~make_predictor () =
  if events > Arena.length arena then
    invalid_arg "Profile.collect_arena: events exceeds arena length";
  let iter f =
    for i = 0 to events - 1 do
      f ~pc:(Arena.pc arena i) ~taken:(Arena.taken arena i)
        ~instrs:(Arena.instrs arena i)
    done
  in
  collect_core ?max_candidates ?min_mispred ?max_samples ?chunk ~lengths
    ~events ~iter ~make_predictor ()

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
