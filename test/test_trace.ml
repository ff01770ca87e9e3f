(* Tests for whisper_trace: behaviours, CFG generation, the application
   model, the PT-like codec and profile collection. *)

open Whisper_util
open Whisper_trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tiny_mix : Workloads.mix =
  {
    always = 1.0;
    never = 0.0;
    bias = 0.0;
    loop = 0.0;
    short_f = 0.0;
    ctx = 0.0;
    hashed = 0.0;
    parity = 0.0;
    random = 0.0;
  }

let tiny_config ?(mix = tiny_mix) ?(noise = 0.0) ?(functions = 4)
    ?(session_zipf = 0.8) () : Workloads.config =
  {
    name = "tiny";
    seed = 7;
    family = Workloads.Datacenter;
    functions;
    blocks_per_fn = (2, 4);
    instrs_per_block = (3, 6);
    session_types = max 2 (functions / 2);
    session_len = (2, 4);
    repeats = (1, 2);
    func_zipf = 0.6;
    session_zipf;
    mix;
    noise;
    hashed_len_weights = Array.make 16 1.0;
    bias_range = (0.7, 0.9);
    random_range = (0.4, 0.6);
    loop_range = (3, 6);
    parity_len = (8, 20);
  }

(* ------------------------------------------------------------------ *)
(* Behavior                                                           *)
(* ------------------------------------------------------------------ *)

let mk_ctx ?(n_branches = 8) () =
  Behavior.make_ctx ~lengths:Workloads.lengths ~n_branches ~chunk:8

let test_behavior_constant () =
  let ctx = mk_ctx () in
  let rng = Rng.create 1 in
  let always = { Behavior.kind = Behavior.Always_taken; noise = 0.0 } in
  let never = { Behavior.kind = Behavior.Never_taken; noise = 0.0 } in
  for _ = 1 to 50 do
    check_bool "always" true (Behavior.eval ctx ~rng ~branch:0 always);
    check_bool "never" false (Behavior.eval ctx ~rng ~branch:1 never);
    Behavior.record ctx (Rng.bool rng)
  done

let test_behavior_loop () =
  let ctx = mk_ctx () in
  let rng = Rng.create 2 in
  let loop = { Behavior.kind = Behavior.Loop { period = 3 }; noise = 0.0 } in
  let outcomes = List.init 9 (fun _ -> Behavior.eval ctx ~rng ~branch:0 loop) in
  Alcotest.(check (list bool))
    "taken taken not-taken, repeating"
    [ true; true; false; true; true; false; true; true; false ]
    outcomes

let test_behavior_short_formula () =
  let ctx = mk_ctx () in
  let rng = Rng.create 3 in
  (* direction = bit of the table indexed by the raw last-2 outcomes *)
  let table = 0b0110 in
  let b = { Behavior.kind = Behavior.Short_formula { len = 2; table }; noise = 0.0 } in
  (* push a known history: newest=1, then 0 -> raw2 = 0b01 -> table bit 1 = 1 *)
  Behavior.record ctx false;
  Behavior.record ctx true;
  check_bool "table[01]" true (Behavior.eval ctx ~rng ~branch:0 b);
  Behavior.record ctx true;
  (* raw2 now = 0b11 -> bit 3 of 0b0110 = 0 *)
  check_bool "table[11]" false (Behavior.eval ctx ~rng ~branch:0 b)

let test_behavior_hashed_formula_matches_tree () =
  let ctx = mk_ctx () in
  let rng = Rng.create 4 in
  let formula_id = 12345 in
  let tree = Whisper_formula.Tree.of_id ~leaves:8 formula_id in
  let b =
    { Behavior.kind = Behavior.Hashed_formula { len_idx = 3; formula_id }; noise = 0.0 }
  in
  for _ = 1 to 200 do
    let expected = Whisper_formula.Tree.eval tree (Behavior.hash_at ctx 3) in
    check_bool "matches tree on current hash" expected
      (Behavior.eval ctx ~rng ~branch:0 b);
    Behavior.record ctx (Rng.bool rng)
  done

let test_behavior_parity () =
  let ctx = mk_ctx () in
  let rng = Rng.create 5 in
  let b = { Behavior.kind = Behavior.Parity { len = 4; step = 1 }; noise = 0.0 } in
  Behavior.record ctx true;
  Behavior.record ctx true;
  Behavior.record ctx false;
  Behavior.record ctx true;
  (* parity of last 4 = 1^1^0^1 = 1 *)
  check_bool "odd parity" true (Behavior.eval ctx ~rng ~branch:0 b);
  Behavior.record ctx true;
  (* last 4 = 1,1,1,0 -> parity 1 *)
  check_bool "still odd" true (Behavior.eval ctx ~rng ~branch:0 b)

let test_behavior_noise_flips () =
  let ctx = mk_ctx () in
  let rng = Rng.create 6 in
  let b = { Behavior.kind = Behavior.Always_taken; noise = 1.0 } in
  check_bool "noise 1.0 always flips" false (Behavior.eval ctx ~rng ~branch:0 b)

let test_behavior_random_frequency () =
  let ctx = mk_ctx () in
  let rng = Rng.create 7 in
  let b = { Behavior.kind = Behavior.Random 0.25; noise = 0.0 } in
  let taken = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Behavior.eval ctx ~rng ~branch:0 b then incr taken
  done;
  let freq = float_of_int !taken /. float_of_int n in
  check_bool "freq near 0.25" true (abs_float (freq -. 0.25) < 0.02)

let test_behavior_record_updates_history () =
  let ctx = mk_ctx () in
  Behavior.record ctx true;
  check_int "newest bit" 1 (Behavior.outcome ctx 0);
  Behavior.record ctx false;
  check_int "newest bit" 0 (Behavior.outcome ctx 0);
  check_int "previous bit" 1 (Behavior.outcome ctx 1)

(* ------------------------------------------------------------------ *)
(* Cfg / Workloads                                                    *)
(* ------------------------------------------------------------------ *)

let test_cfg_validates () =
  Array.iter
    (fun config ->
      let cfg = Workloads.build_cfg config in
      match Cfg.validate cfg with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" config.Workloads.name msg)
    Workloads.all

let test_cfg_deterministic () =
  let c = tiny_config () in
  let a = Workloads.build_cfg c and b = Workloads.build_cfg c in
  check_int "same block count" (Cfg.n_branches a) (Cfg.n_branches b);
  Array.iteri
    (fun i (blk : Cfg.block) ->
      check_int "same addr" blk.addr b.Cfg.blocks.(i).addr)
    a.Cfg.blocks

let test_cfg_block_of_pc () =
  let cfg = Workloads.build_cfg (tiny_config ()) in
  Array.iter
    (fun (b : Cfg.block) ->
      match Cfg.block_of_pc cfg b.branch_pc with
      | Some found -> check_int "roundtrip" b.id found.Cfg.id
      | None -> Alcotest.fail "pc not found")
    cfg.Cfg.blocks;
  Alcotest.(check (option reject)) "bogus pc" None
    (Option.map ignore (Cfg.block_of_pc cfg 1))

let test_cfg_predecessors () =
  let cfg = Workloads.build_cfg (tiny_config ()) in
  let f = cfg.Cfg.funcs.(0) in
  check_int "first block has no predecessors" 0
    (List.length (Cfg.predecessors_in_func cfg f.first_block));
  if f.n_blocks > 1 then begin
    let second = f.first_block + 1 in
    Alcotest.(check (list int))
      "second block's predecessor" [ f.first_block ]
      (Cfg.predecessors_in_func cfg second)
  end

let test_cfg_footprint () =
  let cfg = Workloads.build_cfg (tiny_config ()) in
  let sum =
    Array.fold_left
      (fun acc (b : Cfg.block) -> acc + (b.instrs * Cfg.instr_bytes))
      0 cfg.Cfg.blocks
  in
  check_int "footprint = sum of block bytes" sum cfg.Cfg.footprint

let test_workloads_catalogue () =
  check_int "12 datacenter apps" 12 (Array.length Workloads.datacenter);
  check_int "10 spec apps" 10 (Array.length Workloads.spec);
  check_bool "mysql present" true (Workloads.by_name "mysql" <> None);
  check_bool "unknown absent" true (Workloads.by_name "nope" = None);
  (* names unique *)
  let names = Array.to_list (Array.map (fun c -> c.Workloads.name) Workloads.all) in
  check_int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_workloads_static_scale () =
  Array.iter
    (fun config ->
      let cfg = Workloads.build_cfg config in
      let n = Cfg.n_branches cfg in
      match config.Workloads.family with
      | Workloads.Datacenter ->
          check_bool
            (config.name ^ " has a data-center-sized branch footprint")
            true (n > 3_500)
      | Workloads.Spec ->
          check_bool (config.name ^ " is small") true (n < 15_000))
    Workloads.all

(* ------------------------------------------------------------------ *)
(* App_model                                                          *)
(* ------------------------------------------------------------------ *)

let make_model ?(input = 0) config =
  let cfg = Workloads.build_cfg config in
  App_model.create ~cfg ~config ~input ()

let test_app_model_deterministic () =
  let config = tiny_config () in
  let a = make_model config and b = make_model config in
  let ea = Branch.take (App_model.source a) 1000 in
  let eb = Branch.take (App_model.source b) 1000 in
  Array.iteri
    (fun i (e : Branch.event) ->
      check_int "same block" e.block eb.(i).Branch.block;
      check_bool "same direction" e.taken eb.(i).Branch.taken)
    ea

let test_app_model_inputs_differ () =
  let config =
    tiny_config
      ~mix:{ tiny_mix with always = 0.3; bias = 0.4; random = 0.3 }
      ~functions:32 ()
  in
  let a = make_model ~input:0 config and b = make_model ~input:2 config in
  let ea = Branch.take (App_model.source a) 2000 in
  let eb = Branch.take (App_model.source b) 2000 in
  let diff = ref 0 in
  Array.iteri
    (fun i (e : Branch.event) ->
      if e.Branch.block <> eb.(i).Branch.block || e.taken <> eb.(i).Branch.taken
      then incr diff)
    ea;
  check_bool "different inputs diverge" true (!diff > 100)

let test_app_model_valid_walk () =
  let config = tiny_config ~functions:8 () in
  let cfg = Workloads.build_cfg config in
  let m = App_model.create ~cfg ~config ~input:0 () in
  let events = Branch.take (App_model.source m) 5000 in
  Array.iteri
    (fun i (e : Branch.event) ->
      if i > 0 then begin
        let prev = events.(i - 1) in
        let pb = cfg.Cfg.blocks.(prev.Branch.block) in
        let f = cfg.Cfg.funcs.(pb.func) in
        let last = prev.Branch.block = f.first_block + f.n_blocks - 1 in
        if not last then
          check_int "fall-through" (prev.Branch.block + 1) e.Branch.block
        else begin
          (* function switches land on a function entry *)
          let nb = cfg.Cfg.blocks.(e.Branch.block) in
          let nf = cfg.Cfg.funcs.(nb.func) in
          check_int "enters at function start" nf.first_block e.Branch.block
        end
      end)
    events;
  (* next_addr of event i = addr of block of event i+1 *)
  for i = 0 to Array.length events - 2 do
    check_int "next_addr matches successor"
      cfg.Cfg.blocks.(events.(i + 1).Branch.block).addr
      events.(i).Branch.next_addr
  done

let test_app_model_all_taken () =
  let m = make_model (tiny_config ()) in
  let events = Branch.take (App_model.source m) 500 in
  Array.iter
    (fun (e : Branch.event) -> check_bool "always-taken mix" true e.Branch.taken)
    events

let test_app_model_event_fields () =
  let config = tiny_config () in
  let cfg = Workloads.build_cfg config in
  let m = App_model.create ~cfg ~config ~input:0 () in
  let e = App_model.source m () in
  let b = cfg.Cfg.blocks.(e.Branch.block) in
  check_int "pc" b.branch_pc e.Branch.pc;
  check_int "instrs" b.instrs e.Branch.instrs;
  check_int "events counted" 1 (App_model.events_generated m)

let test_app_model_zipf_concentration () =
  (* Higher session-zipf skew concentrates executions on fewer sessions
     and hence fewer functions. *)
  let run session_zipf =
    let config = tiny_config ~functions:64 ~session_zipf () in
    let cfg = Workloads.build_cfg config in
    let m = App_model.create ~cfg ~config ~input:0 () in
    let seen = Hashtbl.create 64 in
    for _ = 1 to 5000 do
      let e = App_model.source m () in
      Hashtbl.replace seen cfg.Cfg.blocks.(e.Branch.block).func ()
    done;
    Hashtbl.length seen
  in
  let flat = run 0.1 and skewed = run 3.0 in
  check_bool "skew reduces function working set" true (skewed < flat)

(* ------------------------------------------------------------------ *)
(* Pt_codec                                                           *)
(* ------------------------------------------------------------------ *)

let event_testable =
  Alcotest.testable Branch.pp (fun (a : Branch.event) b -> a = b)

let test_codec_roundtrip () =
  let config = tiny_config ~functions:6 () in
  let cfg = Workloads.build_cfg config in
  let m = App_model.create ~cfg ~config ~input:0 () in
  let events = Branch.take (App_model.source m) 3000 in
  let decoded = Pt_codec.decode_exn ~cfg (Pt_codec.encode ~cfg events) in
  Alcotest.(check (array event_testable)) "roundtrip" events decoded

let test_codec_empty () =
  let cfg = Workloads.build_cfg (tiny_config ()) in
  let decoded = Pt_codec.decode_exn ~cfg (Pt_codec.encode ~cfg [||]) in
  check_int "empty" 0 (Array.length decoded)

let test_codec_compact () =
  let config = tiny_config ~functions:6 () in
  let cfg = Workloads.build_cfg config in
  let m = App_model.create ~cfg ~config ~input:0 () in
  let events = Branch.take (App_model.source m) 5000 in
  let ratio = Pt_codec.compression_ratio ~cfg events in
  check_bool "under 2 bytes per branch" true (ratio < 2.0)

let test_codec_corrupt () =
  (* decoding is total: corrupt input comes back as a typed Error with
     the stage and byte offset of the fault, never an exception *)
  let cfg = Workloads.build_cfg (tiny_config ()) in
  (match Pt_codec.decode ~cfg (Bytes.of_string "\xFF\xFF") with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error e ->
      check_bool "stage is pt_codec" true
        (e.Whisper_error.stage = Whisper_error.Pt_codec));
  (* every truncation of a valid stream is rejected the same way *)
  let config = tiny_config ~functions:4 () in
  let cfg = Workloads.build_cfg config in
  let m = App_model.create ~cfg ~config ~input:0 () in
  let good = Pt_codec.encode ~cfg (Branch.take (App_model.source m) 500) in
  for cut = 1 to min 100 (Bytes.length good - 1) do
    match Pt_codec.decode ~cfg (Bytes.sub good 0 cut) with
    | Error _ -> ()
    | Ok events ->
        (* a prefix of packets can decode cleanly; it must then be a
           prefix of the original event stream, not garbage *)
        check_bool "clean prefix" true (Array.length events <= 500)
  done

let qcheck_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip for random lengths" ~count:30
    QCheck.(pair (int_range 0 2000) (int_range 0 1000))
    (fun (n, seed_off) ->
      let config = { (tiny_config ~functions:6 ()) with seed = 7 + seed_off } in
      let cfg = Workloads.build_cfg config in
      let m = App_model.create ~cfg ~config ~input:0 () in
      let events = Branch.take (App_model.source m) n in
      Pt_codec.decode_exn ~cfg (Pt_codec.encode ~cfg events) = events)

(* ------------------------------------------------------------------ *)
(* Profile                                                            *)
(* ------------------------------------------------------------------ *)

let static_taken_predictor () ~pc:_ ~taken = taken (* predicts taken *)

let mixed_config () =
  tiny_config
    ~mix:
      {
        always = 0.3;
        never = 0.3;
        bias = 0.0;
        loop = 0.0;
        short_f = 0.0;
        ctx = 0.0;
        hashed = 0.0;
        parity = 0.0;
        random = 0.4;
      }
    ~functions:16 ()

let collect_profile ?(events = 8000) ?(min_mispred = 1) ?(max_candidates = 64)
    ?(max_samples = 128) config =
  let cfg = Workloads.build_cfg config in
  Profile.collect ~max_candidates ~min_mispred ~max_samples
    ~lengths:Workloads.lengths ~events
    ~make_source:(fun () ->
      App_model.source (App_model.create ~cfg ~config ~input:0 ()))
    ~make_predictor:(fun () -> static_taken_predictor ())
    ()

let test_profile_totals () =
  let events = 8000 in
  let p = collect_profile ~events (mixed_config ()) in
  check_int "branch total" events (Profile.total_branches p);
  let sum = ref 0 in
  Profile.iter_stats p ~f:(fun ~pc:_ s -> sum := !sum + s.Profile.execs);
  check_int "per-branch execs sum to total" events !sum;
  check_bool "instrs counted" true (Profile.total_instrs p > events);
  check_bool "some mispredictions" true (Profile.total_mispred p > 0);
  check_bool "mpki positive" true (Profile.mpki p > 0.0)

let test_profile_mispred_consistency () =
  (* With an always-predict-taken baseline, mispredictions = not-taken. *)
  let p = collect_profile (mixed_config ()) in
  Profile.iter_stats p ~f:(fun ~pc:_ s ->
      check_int "mispred = execs - taken"
        (s.Profile.execs - s.Profile.taken_cnt)
        s.Profile.mispred)

let test_profile_candidates_sorted () =
  let p = collect_profile (mixed_config ()) in
  let cands = Profile.candidates p in
  check_bool "has candidates" true (Array.length cands > 0);
  for i = 1 to Array.length cands - 1 do
    let m pc =
      match Profile.stat p ~pc with Some s -> s.Profile.mispred | None -> 0
    in
    check_bool "sorted by mispredictions" true (m cands.(i - 1) >= m cands.(i))
  done

let test_profile_sample_cap () =
  let p = collect_profile ~max_samples:16 (mixed_config ()) in
  Array.iter
    (fun pc -> check_bool "cap respected" true (Profile.n_samples p ~pc <= 16))
    (Profile.candidates p)

let test_profile_samples_agree_with_ground_truth () =
  (* Replay the same stream manually, verifying the recorded hashes. *)
  let config = mixed_config () in
  let cfg = Workloads.build_cfg config in
  let events = 4000 in
  let p =
    Profile.collect ~max_candidates:8 ~min_mispred:1 ~max_samples:100000
      ~lengths:Workloads.lengths ~events
      ~make_source:(fun () ->
        App_model.source (App_model.create ~cfg ~config ~input:0 ()))
      ~make_predictor:(fun () -> static_taken_predictor ())
      ()
  in
  let cands = Profile.candidates p in
  check_bool "have candidates" true (Array.length cands > 0);
  let pc0 = cands.(0) in
  (* Recompute expected samples for pc0 by replay. *)
  let src = App_model.source (App_model.create ~cfg ~config ~input:0 ()) in
  let hist = History.create ~depth:2048 in
  let folded =
    Array.map
      (fun len -> History.Folded.create ~len ~chunk:8)
      Workloads.lengths
  in
  let expected = ref [] in
  for _ = 1 to events do
    let e = src () in
    if e.Branch.pc = pc0 then
      expected :=
        ( Whisper_oracle.History_ref.raw_window hist 8,
          History.Folded.value folded.(5),
          e.Branch.taken )
        :: !expected;
    History.push_all hist folded e.Branch.taken
  done;
  let expected = Array.of_list (List.rev !expected) in
  let i = ref 0 in
  Profile.iter_samples p ~pc:pc0 ~f:(fun ~raw8 ~raw56:_ ~hash ~taken ~correct:_ ->
      let e_raw8, e_hash5, e_taken = expected.(!i) in
      check_int "raw8" e_raw8 raw8;
      check_int "hash idx5" e_hash5 (hash 5);
      check_bool "taken" e_taken taken;
      incr i);
  check_int "sample count" (Array.length expected) !i

let test_profile_merge () =
  let config = mixed_config () in
  let p1 = collect_profile ~events:2000 config in
  let p2 = collect_profile ~events:3000 config in
  let m = Profile.merge [ p1; p2 ] in
  check_int "branches add" 5000 (Profile.total_branches m);
  check_int "mispreds add"
    (Profile.total_mispred p1 + Profile.total_mispred p2)
    (Profile.total_mispred m);
  (* per-branch stats add *)
  Profile.iter_stats p1 ~f:(fun ~pc s1 ->
      let s2 = Profile.stat p2 ~pc in
      let sm = Option.get (Profile.stat m ~pc) in
      let e2 = match s2 with Some s -> s.Profile.execs | None -> 0 in
      check_int "execs add" (s1.Profile.execs + e2) sm.Profile.execs);
  (* samples pooled *)
  let total_samples p =
    Array.fold_left (fun acc pc -> acc + Profile.n_samples p ~pc) 0
      (Profile.candidates p)
  in
  check_int "samples pooled" (total_samples p1 + total_samples p2) (total_samples m)

let test_profile_merge_invalid () =
  Alcotest.check_raises "empty merge" (Invalid_argument "Profile.merge: empty list")
    (fun () -> ignore (Profile.merge []))

let test_profile_builder () =
  let p = Profile.create_empty ~lengths:Workloads.lengths () in
  Profile.record_event p ~pc:100 ~taken:true ~correct:false ~instrs:5;
  Profile.record_event p ~pc:100 ~taken:false ~correct:true ~instrs:5;
  let s = Option.get (Profile.stat p ~pc:100) in
  check_int "execs" 2 s.Profile.execs;
  check_int "taken" 1 s.Profile.taken_cnt;
  check_int "mispred" 1 s.Profile.mispred;
  let hashes = Array.init 16 (fun i -> i * 3 mod 256) in
  Profile.add_sample p ~pc:100 ~raw8:0xAB ~hashes ~taken:true ~correct:false;
  check_int "one sample" 1 (Profile.n_samples p ~pc:100);
  Profile.iter_samples p ~pc:100 ~f:(fun ~raw8 ~raw56:_ ~hash ~taken ~correct ->
      check_int "raw8" 0xAB raw8;
      check_int "hash 4" 12 (hash 4);
      check_bool "taken" true taken;
      check_bool "correct" false correct)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Refusals at the generator's and the collector's boundaries         *)
(* ------------------------------------------------------------------ *)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_make_ctx_refuses_bad_series () =
  List.iter
    (fun (what, lengths, chunk) ->
      check_bool what true
        (raises_invalid (fun () -> Behavior.make_ctx ~lengths ~n_branches:1 ~chunk)))
    [
      ("zero length", [| 8; 0 |], 8);
      ("negative length", [| -3 |], 8);
      ("length past 2^24", [| 1 lsl 25 |], 8);
      ("zero chunk", [| 8 |], 0);
      ("chunk past 62", [| 8 |], 63);
    ];
  (* the ring is sized from the series: an outcome 2 * 2048 - 1 back is
     still there, one more back reads as never recorded *)
  let ctx = Behavior.make_ctx ~lengths:[| 2048 |] ~n_branches:1 ~chunk:8 in
  Behavior.record ctx true;
  for _ = 1 to 4095 do
    Behavior.record ctx false
  done;
  check_int "oldest kept outcome" 1 (Behavior.outcome ctx 4095);
  Behavior.record ctx false;
  check_int "past the depth" 0 (Behavior.outcome ctx 4096);
  check_bool "negative age" true (raises_invalid (fun () -> Behavior.outcome ctx (-1)))

let test_behavior_refuses_bad_windows () =
  let ctx = mk_ctx () and rng = Rng.create 3 in
  List.iter
    (fun (what, kind) ->
      check_bool what true
        (raises_invalid (fun () ->
             Behavior.eval ctx ~rng ~branch:0 { Behavior.kind; noise = 0.0 })))
    [
      ("short window of 63", Behavior.Short_formula { len = 63; table = 1 });
      ("ctx-prf window of 63", Ctx_prf { len = 63; seed = 1; p_taken = 0.5 });
      (* a zero step looped forever before it was refused *)
      ("parity step 0", Parity { len = 8; step = 0 });
      ("hashed length index", Hashed_formula { len_idx = 16; formula_id = 1 });
    ]

let test_walk_refuses_bad_sessions () =
  let ctx = Behavior.make_ctx ~lengths:[| 8 |] ~n_branches:3 ~chunk:8 in
  let b = { Behavior.kind = Behavior.Always_taken; noise = 0.0 } in
  let behaviors = Array.make 3 b and loop_back = Array.make 3 false in
  let walk ?(ctx = ctx) ?(loop_back = loop_back) sessions sums () =
    Behavior.walk ctx ~rng:(Rng.create 1) ~behaviors ~loop_back ~sessions ~sums
  in
  List.iter
    (fun (what, f) -> check_bool what true (raises_invalid f))
    [
      ("block past the program", walk [| [| 0; 3 |] |] [| 1.0 |]);
      ("negative block", walk [| [| -1 |] |] [| 1.0 |]);
      ("empty session", walk [| [||] |] [| 1.0 |]);
      ("sums for another catalogue", walk [| [| 0 |] |] [| 1.0; 2.0 |]);
      ("no sessions", walk [||] [||]);
      ("loop-back flags for another program", walk ~loop_back:[| false |] [| [| 0 |] |] [| 1.0 |]);
      ( "fewer loop counters than blocks",
        walk
          ~ctx:(Behavior.make_ctx ~lengths:[| 8 |] ~n_branches:2 ~chunk:8)
          [| [| 0 |] |] [| 1.0 |] );
    ];
  let w = walk [| [| 0; 1; 2 |] |] [| 1.0 |] () in
  check_bool "short buffers" true
    (raises_invalid (fun () ->
         Behavior.walk_fill w ~n:9 ~block:(Array.make 8 0) ~taken:(Bytes.make 2 '\000')))

(* Arenas whose blocks and pcs are not one-to-one cannot be counted by
   block; collection refuses them instead of conflating two branches. *)
let test_profile_refuses_inconsistent_arenas () =
  let arena events =
    let events = Array.of_list events in
    let i = ref (-1) in
    Arena.of_source ~events:(Array.length events) (fun () ->
        incr i;
        let block, pc = events.(!i) in
        { Branch.block; pc; taken = true; instrs = 4; next_addr = 0 })
  in
  let collect a =
    Profile.collect_verdicts ~lengths:Workloads.lengths ~events:(Arena.length a)
      ~arena:a ~verdicts:(Bytes.make (Arena.length a) '\001') ()
  in
  List.iter
    (fun (what, events) ->
      check_bool what true (raises_invalid (fun () -> collect (arena events))))
    [
      ("a block with two pcs", [ (0, 100); (1, 200); (0, 104) ]);
      ("a pc in two blocks", [ (0, 100); (1, 100) ]);
      ("a negative block", [ (0, 100); (-1, 104) ]);
    ];
  check_int "a consistent arena collects" 3
    (Profile.total_branches (collect (arena [ (0, 100); (1, 104); (0, 100) ])));
  check_bool "fewer verdicts than events" true
    (raises_invalid (fun () ->
         let a = arena [ (0, 100) ] in
         Profile.collect_verdicts ~lengths:Workloads.lengths ~events:1 ~arena:a
           ~verdicts:Bytes.empty ()));
  (* a well-formed cache entry whose block id would size a 2^40-entry
     table: decoded fine, refused by collection without allocating *)
  let w = Binio.Writer.create () in
  Binio.Writer.magic w "WTAR";
  Binio.Writer.varint w 1;
  Binio.Writer.varint w 2;
  List.iter (Binio.Writer.varint w) [ 0; 1 lsl 40; 100; 104; 4; 4; 0; 0 ];
  Binio.Writer.bytes w (Bytes.make 1 '\003');
  match Arena.of_bytes (Binio.Writer.contents w) with
  | Error e -> Alcotest.failf "entry rejected: %s" (Whisper_error.to_string e)
  | Ok a -> check_bool "block id past the arena" true (raises_invalid (fun () -> collect a))

let () =
  Alcotest.run "whisper_trace"
    [
      ( "behavior",
        Alcotest.
          [
            test_case "constants" `Quick test_behavior_constant;
            test_case "loop" `Quick test_behavior_loop;
            test_case "short formula" `Quick test_behavior_short_formula;
            test_case "hashed formula matches tree" `Quick
              test_behavior_hashed_formula_matches_tree;
            test_case "parity" `Quick test_behavior_parity;
            test_case "noise flips" `Quick test_behavior_noise_flips;
            test_case "random frequency" `Quick test_behavior_random_frequency;
            test_case "record updates history" `Quick
              test_behavior_record_updates_history;
            test_case "make_ctx refuses bad series" `Quick
              test_make_ctx_refuses_bad_series;
            test_case "refuses bad windows" `Quick
              test_behavior_refuses_bad_windows;
            test_case "walk refuses bad sessions" `Quick
              test_walk_refuses_bad_sessions;
          ] );
      ( "cfg",
        Alcotest.
          [
            test_case "all workloads validate" `Quick test_cfg_validates;
            test_case "deterministic" `Quick test_cfg_deterministic;
            test_case "block_of_pc" `Quick test_cfg_block_of_pc;
            test_case "predecessors" `Quick test_cfg_predecessors;
            test_case "footprint" `Quick test_cfg_footprint;
          ] );
      ( "workloads",
        Alcotest.
          [
            test_case "catalogue" `Quick test_workloads_catalogue;
            test_case "static scale" `Quick test_workloads_static_scale;
          ] );
      ( "app_model",
        Alcotest.
          [
            test_case "deterministic" `Quick test_app_model_deterministic;
            test_case "inputs differ" `Quick test_app_model_inputs_differ;
            test_case "valid walk" `Quick test_app_model_valid_walk;
            test_case "all taken mix" `Quick test_app_model_all_taken;
            test_case "event fields" `Quick test_app_model_event_fields;
            test_case "zipf concentration" `Quick test_app_model_zipf_concentration;
          ] );
      ( "pt_codec",
        Alcotest.
          [
            test_case "roundtrip" `Quick test_codec_roundtrip;
            test_case "empty" `Quick test_codec_empty;
            test_case "compact" `Quick test_codec_compact;
            test_case "corrupt" `Quick test_codec_corrupt;
          ]
        @ qsuite [ qcheck_codec_roundtrip ] );
      ( "profile",
        Alcotest.
          [
            test_case "totals" `Quick test_profile_totals;
            test_case "mispred consistency" `Quick test_profile_mispred_consistency;
            test_case "candidates sorted" `Quick test_profile_candidates_sorted;
            test_case "sample cap" `Quick test_profile_sample_cap;
            test_case "samples agree with replay" `Quick
              test_profile_samples_agree_with_ground_truth;
            test_case "merge" `Quick test_profile_merge;
            test_case "merge invalid" `Quick test_profile_merge_invalid;
            test_case "builder" `Quick test_profile_builder;
            test_case "refuses inconsistent arenas" `Quick
              test_profile_refuses_inconsistent_arenas;
          ] );
    ]
