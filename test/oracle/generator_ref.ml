(* The trace generator as it was before the bitmap-history rewrite:
   SplitMix64 over a boxed [int64] field, the branch behaviours evaluated
   against a byte-per-bit [History] ring with one [History.Folded]
   record per length (windows and parities read a bit at a time,
   hashed-formula tables looked up by formula id in a [Hashtbl]), and
   sessions composed by [sample_weighted], which re-sums every function
   weight on every draw.  [App_model] and [Arena] must reproduce its
   streams byte for byte. *)

open Whisper_trace
module History = Whisper_util.History

module Rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L
  let create seed = { state = Int64.of_int seed }
  let copy t = { state = t.state }

  let mix z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let next t =
    t.state <- Int64.add t.state golden_gamma;
    mix t.state

  let split t =
    let s = next t in
    { state = mix s }

  let bits t n =
    if n < 0 || n > 62 then invalid_arg "Rng.bits";
    if n = 0 then 0
    else Int64.to_int (Int64.shift_right_logical (next t) (64 - n))

  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int";
    let mask = 0x3FFF_FFFF_FFFF_FFFF in
    let rec draw () =
      let r = Int64.to_int (Int64.shift_right_logical (next t) 2) land mask in
      let v = r mod bound in
      if r - v + (bound - 1) < 0 then draw () else v
    in
    draw ()

  let float t bound =
    let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
    r /. 9007199254740992.0 *. bound

  let bool t = Int64.compare (Int64.logand (next t) 1L) 0L <> 0
  let bernoulli t p = float t 1.0 < p

  let geometric t p =
    if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric";
    if p = 1.0 then 0
    else
      let u = float t 1.0 in
      let u = if u <= 0.0 then epsilon_float else u in
      int_of_float (Float.floor (log u /. log (1.0 -. p)))

  let shuffle t arr =
    let n = Array.length arr in
    for i = n - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done

  let permutation t n =
    let arr = Array.init n Fun.id in
    shuffle t arr;
    arr

  let choose t arr =
    if Array.length arr = 0 then invalid_arg "Rng.choose";
    arr.(int t (Array.length arr))

  let sample_weighted t arr =
    let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 arr in
    if total <= 0.0 then invalid_arg "Rng.sample_weighted";
    let target = float t total in
    let rec go i acc =
      if i >= Array.length arr - 1 then snd arr.(Array.length arr - 1)
      else
        let w, v = arr.(i) in
        let acc = acc +. w in
        if target < acc then v else go (i + 1) acc
    in
    go 0 0.0
end

module Behavior = struct
  type ctx = {
    hist : History.t;
    folded : History.Folded.t array;
    loop_counters : int array;
    tables : (int, Bytes.t) Hashtbl.t;
  }

  let make_ctx ~lengths ~n_branches ~chunk =
    let max_len = Array.fold_left max 1 lengths in
    {
      hist = History.create ~depth:(max 64 (2 * max_len));
      folded = Array.map (fun len -> History.Folded.create ~len ~chunk) lengths;
      loop_counters = Array.make (max 1 n_branches) 0;
      tables = Hashtbl.create 64;
    }

  let hash_at ctx len_idx = History.Folded.value ctx.folded.(len_idx)
  let outcome ctx age = History.get ctx.hist age

  let table_of ctx formula_id =
    match Hashtbl.find_opt ctx.tables formula_id with
    | Some table -> table
    | None ->
        let tree =
          Whisper_formula.Tree.of_id ~leaves:Behavior.formula_leaves formula_id
        in
        let table = Whisper_formula.Tree.truth_table tree in
        Hashtbl.add ctx.tables formula_id table;
        table

  let eval_kind ctx ~rng ~branch = function
    | Behavior.Always_taken -> true
    | Never_taken -> false
    | Bias p -> Rng.bernoulli rng p
    | Loop { period } ->
        let c = ctx.loop_counters.(branch) in
        ctx.loop_counters.(branch) <- (c + 1) mod period;
        c < period - 1
    | Short_formula { len; table } ->
        let idx = History_ref.raw_window ctx.hist len in
        (table lsr idx) land 1 = 1
    | Hashed_formula { len_idx; formula_id } ->
        let h = hash_at ctx len_idx in
        Whisper_formula.Tree.eval_tt (table_of ctx formula_id) h
    | Parity { len; step } ->
        let acc = ref 0 in
        let j = ref 0 in
        while !j < len do
          acc := !acc lxor History.get ctx.hist !j;
          j := !j + step
        done;
        !acc = 1
    | Ctx_prf { len; seed; p_taken } ->
        let w = History_ref.raw_window ctx.hist len in
        let z = (seed * 0x9E3779B1) lxor (w * 0x85EBCA77) in
        let z = (z lxor (z lsr 31)) * 0xC2B2AE3D in
        let z = (z lxor (z lsr 29)) land 0x3FFFFFFF in
        float_of_int z /. 1073741824.0 < p_taken
    | Random p -> Rng.bernoulli rng p

  let eval ctx ~rng ~branch (t : Behavior.t) =
    let base = eval_kind ctx ~rng ~branch t.kind in
    if t.noise > 0.0 && Rng.bernoulli rng t.noise then not base else base

  let record ctx taken = History.push_all ctx.hist ctx.folded taken
end

module App_model = struct
  type t = {
    cfg : Cfg.t;
    rng : Rng.t;
    ctx : Behavior.ctx;
    behaviors : Whisper_trace.Behavior.t array;
    session_blocks : int array array;
    cum_weights : float array;
    total_weight : float;
    mutable cur_session : int array;
    mutable pos : int;
  }

  let build_sessions ~(cfg : Cfg.t) ~(config : Workloads.config) =
    let rng = Rng.create ((config.seed * 2_654_435) + 99) in
    let n_fn = Array.length cfg.funcs in
    let ranks = Rng.permutation rng n_fn in
    let weights =
      Array.init n_fn (fun i ->
          (1.0 /. (float_of_int (1 + ranks.(i)) ** config.func_zipf), i))
    in
    Array.init config.session_types (fun _ ->
        let lo, hi = config.session_len in
        let n = lo + Rng.int rng (hi - lo + 1) in
        let blocks = ref [] in
        for _ = 1 to n do
          let fid = Rng.sample_weighted rng weights in
          let rlo, rhi = config.repeats in
          let reps = rlo + Rng.int rng (rhi - rlo + 1) in
          let f = cfg.funcs.(fid) in
          for _ = 1 to reps do
            for b = f.first_block to f.first_block + f.n_blocks - 1 do
              blocks := b :: !blocks
            done
          done
        done;
        Array.of_list (List.rev !blocks))

  let session_cum ~(config : Workloads.config) ~input ~phase =
    let n = config.session_types in
    let base_rng = Rng.create ((config.seed * 69_069) + 12345) in
    let ranks = Rng.permutation base_rng n in
    if phase > 0 then begin
      let prng = Rng.create ((config.seed * 48_271) + (phase * 104_003) + 7) in
      let perm = Rng.permutation prng n in
      let old = Array.copy ranks in
      for i = 0 to n - 1 do
        ranks.(i) <- old.(perm.(i))
      done
    end;
    if input > 0 then begin
      let irng = Rng.create ((config.seed * 31_337) + (input * 7919)) in
      let swaps = input * max 1 (n / 6) in
      for _ = 1 to swaps do
        let i = Rng.int irng n and j = Rng.int irng n in
        if ranks.(i) >= 2 && ranks.(j) >= 2 then begin
          let tmp = ranks.(i) in
          ranks.(i) <- ranks.(j);
          ranks.(j) <- tmp
        end
      done
    end;
    let cum = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc :=
        !acc +. (1.0 /. (float_of_int (1 + ranks.(i)) ** config.session_zipf));
      cum.(i) <- !acc
    done;
    (cum, !acc)

  let adjust_behaviors ~(cfg : Cfg.t) ~(config : Workloads.config) ~input =
    let jrng = Rng.create ((config.seed * 104_729) + (input * 31)) in
    Array.map
      (fun (b : Whisper_trace.Behavior.t) ->
        match b.kind with
        | Whisper_trace.Behavior.Bias p ->
            let p' = p +. (Rng.float jrng 0.04 -. 0.02) in
            { b with kind = Bias (Float.min 0.998 (Float.max 0.002 p')) }
        | Random p ->
            let p' = p +. (Rng.float jrng 0.16 -. 0.08) in
            { b with kind = Random (Float.min 0.95 (Float.max 0.05 p')) }
        | _ -> b)
      cfg.behaviors

  let sample_session t =
    let target = Rng.float t.rng t.total_weight in
    let lo = ref 0 and hi = ref (Array.length t.cum_weights - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cum_weights.(mid) > target then hi := mid else lo := mid + 1
    done;
    !lo

  let create ?(lengths = Workloads.lengths) ?(chunk = 8) ?(phase = 0) ~cfg
      ~config ~input () =
    let rng = Rng.create ((config.Workloads.seed * 65_537) + (input * 257) + 1) in
    let ctx =
      Behavior.make_ctx ~lengths ~n_branches:(Cfg.n_branches cfg) ~chunk
    in
    let session_blocks = build_sessions ~cfg ~config in
    let cum_weights, total_weight = session_cum ~config ~input ~phase in
    let t =
      {
        cfg;
        rng;
        ctx;
        behaviors = adjust_behaviors ~cfg ~config ~input;
        session_blocks;
        cum_weights;
        total_weight;
        cur_session = [||];
        pos = 0;
      }
    in
    t.cur_session <- t.session_blocks.(sample_session t);
    t

  let fill t ~n ~block ~pc ~instrs ~next_addr ~taken =
    for i = 0 to n - 1 do
      let cur = t.cur_session.(t.pos) in
      let blk = t.cfg.blocks.(cur) in
      let tk = Behavior.eval t.ctx ~rng:t.rng ~branch:cur t.behaviors.(cur) in
      Behavior.record t.ctx tk;
      let succ_block =
        if tk && blk.loop_back then cur
        else begin
          if t.pos + 1 >= Array.length t.cur_session then begin
            t.cur_session <- t.session_blocks.(sample_session t);
            t.pos <- 0
          end
          else t.pos <- t.pos + 1;
          t.cur_session.(t.pos)
        end
      in
      block.(i) <- cur;
      pc.(i) <- blk.branch_pc;
      instrs.(i) <- blk.instrs;
      next_addr.(i) <- t.cfg.blocks.(succ_block).addr;
      let byte = Char.code (Bytes.get taken (i lsr 3)) in
      let bit = 1 lsl (i land 7) in
      let byte' = if tk then byte lor bit else byte land lnot bit in
      Bytes.set taken (i lsr 3) (Char.chr (byte' land 0xff))
    done

  let source t () =
    let b = Array.make 1 0 and p = Array.make 1 0 in
    let ins = Array.make 1 0 and na = Array.make 1 0 in
    let tk = Bytes.make 1 '\000' in
    fill t ~n:1 ~block:b ~pc:p ~instrs:ins ~next_addr:na ~taken:tk;
    {
      Branch.block = b.(0);
      pc = p.(0);
      taken = Char.code (Bytes.get tk 0) land 1 = 1;
      instrs = ins.(0);
      next_addr = na.(0);
    }
end
