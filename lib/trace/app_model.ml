open Whisper_util

(* A session is a request-type-like unit of work: a fixed sequence of
   (function, repeat-count) entries, flattened at build time into the block
   visit order it produces.  Sessions make branch history locally
   repetitive — the property online predictors exploit in real servers —
   while the number of distinct sessions times their footprints sets the
   branch working-set size that pressures predictor capacity. *)

type t = {
  cfg : Cfg.t;
  ctx : Behavior.ctx;
  walk : Behavior.walk;  (* input-adjusted behaviours, session order *)
  mutable count : int;
  (* one-event scratch buffers backing [next], so the single-event path is
     the n=1 case of [fill] rather than a second copy of the walk logic *)
  s_block : int array;
  s_pc : int array;
  s_instrs : int array;
  s_next_addr : int array;
  s_taken : Bytes.t;
}

(* Build the session catalogue: which functions each request type touches,
   with deterministic repeat counts.  Depends only on the config seed. *)
let build_sessions ~(cfg : Cfg.t) ~(config : Workloads.config) =
  let rng = Rng.create ((config.seed * 2_654_435) + 99) in
  let n_fn = Array.length cfg.funcs in
  (* function popularity for session composition *)
  let ranks = Rng.permutation rng n_fn in
  let sums =
    Rng.running_sums
      (Array.init n_fn (fun i ->
           1.0 /. (float_of_int (1 + ranks.(i)) ** config.func_zipf)))
  in
  Array.init config.session_types (fun _ ->
      let lo, hi = config.session_len in
      let n = lo + Rng.int rng (hi - lo + 1) in
      let blocks = ref [] in
      for _ = 1 to n do
        let fid = Rng.sample_cumulative rng sums in
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

(* Run-time popularity of session types, with an input-dependent
   permutation: different inputs make different request types hot.

   [phase] models macro workload drift (a product launch, a traffic
   migration): unlike [input], which only reshuffles the popularity
   tail, a phase change re-ranks {e every} session type — including the
   heads — so the hot branch working set genuinely moves and hints
   trained on an earlier phase lose coverage.  Phase 0 is the identity,
   so existing streams are unchanged. *)
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
    let swaps = input * (max 1 (n / 6)) in
    for _ = 1 to swaps do
      let i = Rng.int irng n and j = Rng.int irng n in
      (* the hottest request types stay hot across inputs (an interpreter
         loop is hot no matter the script); only the tail reshuffles *)
      if ranks.(i) >= 2 && ranks.(j) >= 2 then begin
        let tmp = ranks.(i) in
        ranks.(i) <- ranks.(j);
        ranks.(j) <- tmp
      end
    done
  end;
  Rng.running_sums
    (Array.map
       (fun r -> 1.0 /. (float_of_int (1 + r) ** config.session_zipf))
       ranks)

(* Input-dependent jitter on stochastic behaviour parameters: the static
   program is shared, but data-dependent probabilities shift between
   inputs (different queries, pages, seeds — paper §V-A). *)
let adjust_behaviors ~(cfg : Cfg.t) ~(config : Workloads.config) ~input =
  let jrng = Rng.create ((config.seed * 104_729) + (input * 31)) in
  Array.map
    (fun (b : Behavior.t) ->
      match b.kind with
      | Behavior.Bias p ->
          let p' = p +. (Rng.float jrng 0.04 -. 0.02) in
          { b with kind = Behavior.Bias (Float.min 0.998 (Float.max 0.002 p')) }
      | Behavior.Random p ->
          let p' = p +. (Rng.float jrng 0.16 -. 0.08) in
          { b with kind = Behavior.Random (Float.min 0.95 (Float.max 0.05 p')) }
      | _ -> b)
    cfg.behaviors

let create ?(lengths = Workloads.lengths) ?(chunk = 8) ?(phase = 0) ~cfg
    ~config ~input () =
  let rng = Rng.create ((config.Workloads.seed * 65_537) + (input * 257) + 1) in
  let ctx =
    Behavior.make_ctx ~lengths ~n_branches:(Cfg.n_branches cfg) ~chunk
  in
  (* the walk's block ids index [cfg.blocks] in [fill] *)
  if Array.length cfg.Cfg.behaviors <> Array.length cfg.blocks then
    invalid_arg "App_model.create: behaviours not parallel to blocks";
  {
    cfg;
    ctx;
    walk =
      Behavior.walk ctx ~rng
        ~behaviors:(adjust_behaviors ~cfg ~config ~input)
        ~loop_back:(Array.map (fun (b : Cfg.block) -> b.loop_back) cfg.blocks)
        ~sessions:(build_sessions ~cfg ~config)
        ~sums:(session_cum ~config ~input ~phase);
    count = 0;
    s_block = Array.make 1 0;
    s_pc = Array.make 1 0;
    s_instrs = Array.make 1 0;
    s_next_addr = Array.make 1 0;
    s_taken = Bytes.make 1 '\000';
  }

(* Bulk fill: the walk writes each event's block and direction, then the
   blocks' geometry is copied alongside; event [i]'s successor is event
   [i + 1]'s block, and the last one's is the walk's next block.  Nothing
   is allocated per event — this is the decode-once path backing
   {!Arena.build}. *)
let fill t ~n ~block ~pc ~instrs ~next_addr ~taken =
  if
    n < 0
    || n > Array.length block
    || n > Array.length pc
    || n > Array.length instrs
    || n > Array.length next_addr
    || (n + 7) / 8 > Bytes.length taken
  then invalid_arg "App_model.fill: buffers shorter than n";
  Behavior.walk_fill t.walk ~n ~block ~taken;
  (* the walk checked its blocks against the block count, so they index
     [blocks] unchecked *)
  let blocks = t.cfg.blocks in
  for i = 0 to n - 1 do
    let blk = Array.unsafe_get blocks (Array.unsafe_get block i) in
    Array.unsafe_set pc i blk.branch_pc;
    Array.unsafe_set instrs i blk.instrs;
    if i > 0 then Array.unsafe_set next_addr (i - 1) blk.addr
  done;
  if n > 0 then
    next_addr.(n - 1) <- (Array.unsafe_get blocks (Behavior.walk_block t.walk)).addr;
  t.count <- t.count + n

let next t =
  fill t ~n:1 ~block:t.s_block ~pc:t.s_pc ~instrs:t.s_instrs
    ~next_addr:t.s_next_addr ~taken:t.s_taken;
  {
    Branch.block = t.s_block.(0);
    pc = t.s_pc.(0);
    taken = Char.code (Bytes.get t.s_taken 0) land 1 = 1;
    instrs = t.s_instrs.(0);
    next_addr = t.s_next_addr.(0);
  }

let source t () = next t
let ctx t = t.ctx
let cfg t = t.cfg
let events_generated t = t.count
