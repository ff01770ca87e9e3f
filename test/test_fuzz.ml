(* Property-based fuzz harness for the ingestion pipeline.

   Every binary decoder in the fleet path (PT traces, profiles,
   hint-injection plans, result-cache entries) must be total: whatever
   bytes arrive — truncated, bit-flipped, byte-dropped, version-skewed
   or plain garbage — decoding yields a typed Whisper_error, never an
   uncaught exception, a hang or a giant allocation.

   The case count and seed come from the environment so CI can pin a
   reproducible smoke run:
     WHISPER_FUZZ_CASES  corruption cases per artifact (default 1000)
     WHISPER_FUZZ_SEED   RNG seed of the corruption stream (default 61453)
*)

open Whisper_util
open Whisper_trace

let cases =
  match Sys.getenv_opt "WHISPER_FUZZ_CASES" with
  | Some v -> int_of_string v
  | None -> 1000

let seed =
  match Sys.getenv_opt "WHISPER_FUZZ_SEED" with
  | Some v -> int_of_string v
  | None -> 0xF00D

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Valid artifacts to corrupt                                         *)
(* ------------------------------------------------------------------ *)

let tiny_config =
  {
    (Option.get (Workloads.by_name "cassandra")) with
    Workloads.name = "fuzz-app";
    functions = 4;
    seed = 99;
  }

let cfg = Workloads.build_cfg tiny_config

let trace_bytes =
  let m = App_model.create ~cfg ~config:tiny_config ~input:0 () in
  Pt_codec.encode ~cfg (Branch.take (App_model.source m) 2_000)

let profile_bytes =
  let p = Profile.create_empty ~lengths:Workloads.lengths () in
  let rng = Rng.create 5 in
  for pc = 1 to 12 do
    let pc = 0x4000 + (pc * 16) in
    for _ = 1 to 40 do
      Profile.record_event p ~pc ~taken:(Rng.bool rng)
        ~correct:(Rng.bernoulli rng 0.8) ~instrs:8
    done
  done;
  for s = 1 to 20 do
    Profile.add_sample ~raw56:(s * 977) p ~pc:0x4010 ~raw8:(s land 0xFF)
      ~hashes:(Array.init 16 (fun i -> (s + i) land 0xFF))
      ~taken:(s mod 3 = 0) ~correct:(s mod 5 <> 0)
  done;
  Profile_io.to_bytes p

let plan_bytes =
  let open Whisper_core in
  let placements =
    List.init 6 (fun i ->
        {
          Inject.branch_block = 10 + i;
          host_block = 3 + i;
          hint =
            Brhint.make ~len_idx:(i mod 16) ~formula_id:(i * 321)
              ~bias:(Brhint.bias_of_code (i mod 4))
              ~pc_offset:(i * 5);
          branch_pc = 0x4000 + (i * 64);
          cond_prob = 0.9;
        })
  in
  let by_host = Hashtbl.create 8 in
  Plan_io.to_bytes { Inject.placements; by_host; dropped = 1 }

let chunk_bytes =
  match Profile_io.of_bytes profile_bytes with
  | Ok p -> Profile_chunk.encode ~app:"fuzz-app" ~seq:3 p
  | Error _ -> assert false

let rescore_plan_bytes =
  let open Whisper_core in
  Rescore.encode
    (List.init 5 (fun i ->
         ( 0x4000 + (i * 64),
           {
             History_select.len_idx = i mod 16;
             formula_id = i * 321;
             bias = Brhint.bias_of_code (i mod 4);
             sample_mispred = i;
             baseline_mispred = 2 * i;
             samples = 40;
           } )))

let arena_of_tiny () =
  Arena.build ~events:2_000 (App_model.create ~cfg ~config:tiny_config ~input:0 ())

let arena_entry_key = "fuzz/arena/fuzz-app/99/0/2000"
let arena_bytes = Arena.to_bytes (arena_of_tiny ())

let arena_cache_bytes =
  Whisper_sim.Arena_cache.encode ~key:arena_entry_key (arena_of_tiny ())

let cache_key = "fuzz/cassandra/whisper/0/1/64/2000"

let cache_bytes =
  Whisper_sim.Result_cache.encode ~key:cache_key
    {
      Whisper_pipeline.Machine.cycles = 4242.5;
      instrs = 16000;
      branches = 2000;
      mispredicts = 77;
      misp_stall = 900.0;
      fe_stall = 120.0;
      btb_stall = 10.0;
      l1i_misses = 31;
      exposed_misses = 9;
      seg_mispredicts = Array.init 10 Fun.id;
      seg_instrs = Array.init 10 (fun i -> 1600 + i);
    }

let manifest_bytes =
  Manifest.encode
    (Manifest.make
       ~meta:[ ("events", "2000"); ("kb", "64"); ("seed", "7") ]
       (Array.init 8 (fun i ->
            {
              Manifest.key = Printf.sprintf "fuzz/app-%d/whisper/0/1/64/2000" i;
              spec = Printf.sprintf "spec-blob-%d" i;
            })))

let journal_manifest_id = "0123456789abcdef0123456789abcdef"

let journal_entries =
  [
    { Journal.key = "item-a"; status = Journal.Done; detail = "digest-a" };
    { Journal.key = "item-b"; status = Journal.Quarantined; detail = "poison" };
    { Journal.key = "item-c"; status = Journal.Done; detail = "digest-c" };
  ]

let journal_bytes =
  List.fold_left
    (fun acc e -> Bytes.cat acc (Journal.encode_entry e))
    (Journal.encode_header ~manifest_id:journal_manifest_id)
    journal_entries

let ipc_to_worker_bytes =
  Ipc.encode_to_worker
    (Ipc.Item
       { seq = 7; attempt = 1; key = "fuzz/item"; spec = "spec\x00\xffblob" })

let ipc_from_worker_bytes =
  Ipc.encode_from_worker
    (Ipc.Finished
       {
         seq = 7;
         key = "fuzz/item";
         outcome = Ipc.Completed { digest = "0011223344556677" };
       })

(* ------------------------------------------------------------------ *)
(* Corruption operators (mirrors of the Fault byte operators, driven   *)
(* by an explicit RNG for breadth)                                     *)
(* ------------------------------------------------------------------ *)

let corrupt_one rng b =
  let n = Bytes.length b in
  match Rng.int rng 5 with
  | 0 -> Bytes.sub b 0 (Rng.int rng (max 1 n)) (* truncate *)
  | 1 when n > 0 ->
      (* bit flip *)
      let b = Bytes.copy b in
      let i = Rng.int rng n in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
      b
  | 2 when n > 1 ->
      (* byte drop *)
      let i = Rng.int rng n in
      Bytes.cat (Bytes.sub b 0 i) (Bytes.sub b (i + 1) (n - i - 1))
  | 3 when n > 4 ->
      (* version skew: nudge the varint right after the 4-byte magic *)
      let b = Bytes.copy b in
      Bytes.set b 4 (Char.chr ((Char.code (Bytes.get b 4) + 1) land 0xFF));
      b
  | _ when n > 0 ->
      (* random byte overwrite *)
      let b = Bytes.copy b in
      Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256));
      b
  | _ -> b

(* Each decoder, wrapped so only the totality contract is observed:
   Some err for a rejected input, None for a (possibly vacuous) Ok. *)
let decoders =
  [
    ( "pt_codec",
      trace_bytes,
      fun b ->
        match Pt_codec.decode ~cfg b with
        | Ok _ -> None
        | Error e -> Some (Whisper_error.to_string e) );
    ( "profile_io",
      profile_bytes,
      fun b ->
        match Profile_io.of_bytes b with
        | Ok _ -> None
        | Error e -> Some (Whisper_error.to_string e) );
    ( "plan_io",
      plan_bytes,
      fun b ->
        (* Plan_io stays exception-based, but only typed errors may
           escape it *)
        match Whisper_core.Plan_io.of_bytes b with
        | _ -> None
        | exception Whisper_error.Error e ->
            Some (Whisper_error.to_string e) );
    ( "result_cache",
      cache_bytes,
      fun b ->
        match Whisper_sim.Result_cache.decode ~key:cache_key b with
        | Ok _ -> None
        | Error e -> Some (Whisper_error.to_string e) );
    ( "arena",
      arena_bytes,
      fun b ->
        match Arena.of_bytes b with
        | Ok _ -> None
        | Error e -> Some (Whisper_error.to_string e) );
    ( "arena_cache",
      arena_cache_bytes,
      fun b ->
        match Whisper_sim.Arena_cache.decode ~key:arena_entry_key b with
        | Ok _ -> None
        | Error e -> Some (Whisper_error.to_string e) );
    ( "manifest",
      manifest_bytes,
      fun b ->
        match Manifest.decode b with
        | Ok _ -> None
        | Error e -> Some (Whisper_error.to_string e) );
    ( "journal",
      journal_bytes,
      fun b ->
        (* recovery is total: header damage is a typed error; record
           damage is absorbed as a truncated-tail recovery, which still
           counts as detected *)
        match Journal.decode_all ~manifest_id:journal_manifest_id b with
        | Error e -> Some (Whisper_error.to_string e)
        | Ok r ->
            if
              r.Journal.corrupt_tail
              || List.length r.Journal.entries < List.length journal_entries
            then Some "journal: corrupt suffix truncated"
            else None );
    ( "ipc_to_worker",
      ipc_to_worker_bytes,
      fun b ->
        match Ipc.decode_to_worker b with
        | Ok _ -> None
        | Error e -> Some (Whisper_error.to_string e) );
    ( "ipc_from_worker",
      ipc_from_worker_bytes,
      fun b ->
        match Ipc.decode_from_worker b with
        | Ok _ -> None
        | Error e -> Some (Whisper_error.to_string e) );
    ( "profile_chunk",
      chunk_bytes,
      fun b ->
        match Profile_chunk.decode b with
        | Ok _ -> None
        | Error e -> Some (Whisper_error.to_string e) );
    ( "rescore_plan",
      rescore_plan_bytes,
      fun b ->
        match Whisper_core.Rescore.decode b with
        | Ok _ -> None
        | Error e -> Some (Whisper_error.to_string e) );
  ]

let test_decoders_total () =
  let rng = Rng.create seed in
  let rejected = ref 0 and accepted = ref 0 in
  for case = 1 to cases do
    List.iter
      (fun (name, good, decode) ->
        let bad = corrupt_one rng good in
        match decode bad with
        | Some _ -> incr rejected
        | None -> incr accepted
        | exception e ->
            Alcotest.failf "%s raised %s on case %d (seed %d)" name
              (Printexc.to_string e) case seed)
      decoders
  done;
  (* most corruptions must actually be detected — a fuzzer whose inputs
     all decode cleanly is testing nothing *)
  check_bool "most corruptions rejected" true (!rejected * 2 > !accepted);
  Printf.printf "fuzz: %d cases/decoder, %d rejected, %d accepted, seed %d\n%!"
    cases !rejected !accepted seed

let test_fuzz_deterministic () =
  (* the same seed replays the identical corruption stream and the
     identical decoder verdicts *)
  let run () =
    let rng = Rng.create seed in
    List.concat_map
      (fun (_, good, decode) ->
        List.init 50 (fun _ -> decode (corrupt_one rng good)))
      decoders
  in
  check_bool "verdicts replay byte-identically" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Scoring-engine equivalence (packed vs naive reference)             *)
(* ------------------------------------------------------------------ *)

(* The bit-parallel Algorithm-1 engine must be bit-identical to the
   retained naive reference on arbitrary tables and the real candidate
   sets of both formula families.  Reuses the decoder fuzz knobs:
   WHISPER_FUZZ_CASES scales the number of random tables and
   WHISPER_FUZZ_SEED pins the stream. *)
let test_scorer_equivalence () =
  let open Whisper_core in
  let rng = Rng.create (seed lxor 0x5C0) in
  let table_cases = max 40 (cases / 25) in
  List.iter
    (fun ops ->
      let config = { Config.default with ops } in
      let rnd = Randomized.create config in
      let cands = Randomized.candidates rnd in
      let packed = Randomized.packed_candidates rnd in
      for _ = 1 to table_cases do
        let taken = Array.make 256 0 and not_taken = Array.make 256 0 in
        (* a mix of decisive, balanced (zero-delta) and singleton keys *)
        for _ = 1 to 1 + Rng.int rng 120 do
          let k = Rng.int rng 256 in
          taken.(k) <- taken.(k) + Rng.int rng 10;
          not_taken.(k) <- not_taken.(k) + Rng.int rng 10
        done;
        let t = Algorithm1.tables_of_counts ~taken ~not_taken in
        Array.iteri
          (fun i id ->
            let naive =
              Algorithm1.mispredictions t ~truth:(Randomized.truth_of rnd id)
            in
            let fast = Algorithm1.mispredictions_packed t ~ptruth:packed.(i) in
            if naive <> fast then
              Alcotest.failf "scorer mismatch on id %d: naive %d packed %d" id
                naive fast)
          cands;
        let f, m =
          Algorithm1.find t ~candidates:cands
            ~truth_of:(Randomized.truth_of rnd)
        in
        let i', f', m' = Algorithm1.find_packed t ~candidates:cands ~packed in
        check_int "find winner" f f';
        check_int "find score" m m';
        check_int "winner index resolves" f cands.(i');
        (* the bounded search is exactly find + post-filtering the winner *)
        let cutoff = Rng.int rng (m + 2) in
        (match
           Algorithm1.find_packed_below t ~candidates:cands ~packed ~cutoff
         with
        | Some (_, bf, bm) ->
            check_bool "bounded winner below cutoff" true (bm < cutoff);
            check_int "bounded winner" f bf;
            check_int "bounded score" m bm
        | None -> check_bool "nothing below cutoff" true (m >= cutoff))
      done)
    [ `Classic; `Extended ]

(* ------------------------------------------------------------------ *)
(* Arena replay equivalence and chaos recovery                        *)
(* ------------------------------------------------------------------ *)

(* The packed arena must replay exactly the stream App_model.source
   would have generated, for arbitrary workload shapes — not just the
   configs the deterministic tests happen to pin. *)
let test_arena_replay_equals_closure_random_configs () =
  let rng = Rng.create (seed lxor 0xA7E4A) in
  let config_cases = max 8 (cases / 100) in
  for case = 1 to config_cases do
    let config =
      {
        (Option.get (Workloads.by_name "cassandra")) with
        Workloads.name = Printf.sprintf "fuzz-arena-%d" case;
        functions = 2 + Rng.int rng 8;
        seed = Rng.int rng 10_000;
      }
    in
    let cfg = Workloads.build_cfg config in
    let input = Rng.int rng 3 in
    let events = 1 + Rng.int rng 4_000 in
    let arena = Arena.build ~events (App_model.create ~cfg ~config ~input ()) in
    let src = App_model.source (App_model.create ~cfg ~config ~input ()) in
    check_int "arena length" events (Arena.length arena);
    for i = 0 to events - 1 do
      let e = src () in
      if Arena.event arena i <> e then
        Alcotest.failf "config %d: event %d diverges (seed %d)" case i seed
    done;
    (* the codec round-trips the packed buffers bit-exactly *)
    match Arena.of_bytes (Arena.to_bytes arena) with
    | Ok a -> check_bool "codec round trip" true (Arena.equal arena a)
    | Error e -> Alcotest.failf "round trip rejected: %s" (Whisper_error.to_string e)
  done

(* ------------------------------------------------------------------ *)
(* Compiled-runtime equivalence on adversarial plans                   *)
(* ------------------------------------------------------------------ *)

(* A random app and a hand-built plan for it — not just the well-formed
   plans Inject.plan emits: hints keyed by PCs no branch ever has,
   several hints per host block, every bias, formula ids across the
   whole id space, tiny hint buffers that force constant eviction, and
   non-default hash widths / length series. *)
let random_plan rng ~name =
  let open Whisper_core in
  let wl =
    {
      (Option.get (Workloads.by_name "cassandra")) with
      Workloads.name;
      functions = 2 + Rng.int rng 6;
      seed = Rng.int rng 10_000;
    }
  in
  let cfg = Workloads.build_cfg wl in
  let config =
    {
      Config.default with
      hash_bits = (if Rng.bool rng then 8 else 4);
      n_lengths = (if Rng.bool rng then 16 else 4);
      hint_buffer_size = [| 1; 2; 4; 32 |].(Rng.int rng 4);
    }
  in
  let n_blocks = Array.length cfg.Cfg.blocks in
  let id_space =
    Whisper_formula.Tree.space_size ~leaves:config.Config.hash_bits
  in
  let placements =
    List.init
      (1 + Rng.int rng 24)
      (fun _ ->
        let branch_block = Rng.int rng n_blocks in
        let branch_pc =
          (* mostly PCs branches actually have (so probes hit), some
             junk keys no event ever probes *)
          if Rng.int rng 4 = 0 then 0x9000_0000 + Rng.int rng 4096
          else cfg.Cfg.blocks.(branch_block).Cfg.branch_pc
        in
        {
          Inject.branch_block;
          host_block = Rng.int rng n_blocks;
          hint =
            Brhint.make
              ~len_idx:(Rng.int rng config.Config.n_lengths)
              ~formula_id:(Rng.int rng id_space)
              ~bias:(Brhint.bias_of_code (Rng.int rng 4))
              ~pc_offset:(Rng.int rng 4096);
          branch_pc;
          cond_prob = 1.0;
        })
  in
  let by_host = Hashtbl.create 16 in
  List.iter
    (fun (p : Inject.placement) ->
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt by_host p.Inject.host_block)
      in
      Hashtbl.replace by_host p.Inject.host_block (p :: existing))
    placements;
  (wl, cfg, config, { Inject.placements; by_host; dropped = 0 })

(* The compiled Whisper runtime must agree with the interpretive oracle
   on arbitrary hand-built plans. *)
let test_compiled_runtime_equals_oracle_random_plans () =
  let open Whisper_core in
  let rng = Rng.create (seed lxor 0xC0417) in
  let plan_cases = max 10 (cases / 100) in
  for case = 1 to plan_cases do
    let wl, cfg, config, plan =
      random_plan rng ~name:(Printf.sprintf "fuzz-rtplan-%d" case)
    in
    let events = 1 + Rng.int rng 4_000 in
    let input = Rng.int rng 3 in
    let arena = Arena.build ~events (App_model.create ~cfg ~config:wl ~input ()) in
    let rt =
      Runtime.create config
        ~baseline:(Whisper_bpu.Bimodal.make ~log_entries:8)
        ~plan
    in
    let rf =
      Runtime.Reference.create config
        ~baseline:(Whisper_bpu.Bimodal.make ~log_entries:8)
        ~plan
    in
    for i = 0 to events - 1 do
      let c = Runtime.exec_arena rt ~arena i in
      let r = Runtime.Reference.exec rf (Arena.event arena i) in
      if c <> r then
        Alcotest.failf "plan case %d: verdict diverges at event %d (seed %d)"
          case i seed
    done;
    check_int "hinted" (Runtime.Reference.hinted_predictions rf)
      (Runtime.hinted_predictions rt);
    check_int "hinted wrong"
      (Runtime.Reference.hinted_mispredictions rf)
      (Runtime.hinted_mispredictions rt);
    check_int "baseline"
      (Runtime.Reference.baseline_predictions rf)
      (Runtime.baseline_predictions rt);
    if Runtime.buffer_stats rt <> Runtime.Reference.buffer_stats rf then
      Alcotest.failf "plan case %d: buffer statistics diverge (seed %d)" case
        seed
  done

let test_arena_cache_chaos_drop_and_regenerate () =
  (* a cached arena corrupted in flight (rate-1.0 injector on the read
     path) is dropped and counted, and the decode-once build is
     deterministic, so regeneration restores the identical arena *)
  let dir = Test_dirs.fresh "fuzz_arena" in
  let arena = arena_of_tiny () in
  let f = Whisper_util.Fault.create ~seed:17 ~rate:1.0 () in
  let key =
    (* pick a key the injector answers with a byte operator (Delay/Hang
       leave bytes untouched and would make this test vacuous) *)
    List.find
      (fun key ->
        match Whisper_util.Fault.decision f ~key with
        | Whisper_util.Fault.Inject
            (Truncate | Bit_flip | Byte_drop | Version_skew) ->
            true
        | _ -> false)
      (List.init 32 (Printf.sprintf "fuzz/arena/chaos/%d"))
  in
  let c =
    Whisper_sim.Arena_cache.create
      ~corrupt:(fun ~key b -> Whisper_util.Fault.corrupt f ~key b)
      ~dir ()
  in
  Whisper_sim.Arena_cache.store c ~key arena;
  check_bool "corrupted read is a miss" true
    (Whisper_sim.Arena_cache.find c ~key = None);
  check_int "drop counted" 1
    (Whisper_sim.Arena_cache.counters c)
      .Whisper_sim.Arena_cache.corrupt_dropped;
  check_bool "corrupt entry removed from disk" true
    (not (Sys.file_exists (Whisper_sim.Arena_cache.path c ~key)));
  let regen = arena_of_tiny () in
  check_bool "regenerated arena identical" true (Arena.equal arena regen);
  (* a clean cache (no injector) round-trips the regenerated arena *)
  let clean = Whisper_sim.Arena_cache.create ~dir () in
  Whisper_sim.Arena_cache.store clean ~key regen;
  match Whisper_sim.Arena_cache.find clean ~key with
  | Some a -> check_bool "clean round trip" true (Arena.equal arena a)
  | None -> Alcotest.fail "clean cache lost the entry"

(* ------------------------------------------------------------------ *)
(* Journal recovery under arbitrary corruption                        *)
(* ------------------------------------------------------------------ *)

(* The kill -9 safety argument leans entirely on journal recovery, so it
   gets its own property beyond decoder totality: whatever happens to
   the bytes — one corruption or several stacked — recovery never
   raises, and when it does accept a prefix, every recovered entry is
   bit-identical to the original at that position (the per-record
   checksum makes a mutated-but-accepted record a broken invariant, not
   bad luck). *)
let test_journal_recovery_prefix_under_corruption () =
  let rng = Rng.create (seed lxor 0x10A1) in
  let originals = Array.of_list journal_entries in
  for case = 1 to cases do
    let bad = ref journal_bytes in
    for _ = 0 to Rng.int rng 3 do
      bad := corrupt_one rng !bad
    done;
    match Journal.decode_all ~manifest_id:journal_manifest_id !bad with
    | Error _ -> () (* header damage: caller starts a fresh journal *)
    | Ok r ->
        List.iteri
          (fun i e ->
            if
              i >= Array.length originals
              || not (Journal.entry_equal e originals.(i))
            then
              Alcotest.failf
                "case %d (seed %d): recovered entry %d is not the original \
                 prefix"
                case seed i)
          r.Journal.entries
    | exception e ->
        Alcotest.failf "journal recovery raised %s on case %d (seed %d)"
          (Printexc.to_string e) case seed
  done

(* Torn tails are the common real-world case (SIGKILL mid-append), so
   cover every truncation point exhaustively, not just sampled ones. *)
let test_journal_every_truncation_point () =
  let header_len =
    Bytes.length (Journal.encode_header ~manifest_id:journal_manifest_id)
  in
  (* record boundaries: the only truncation points that are clean *)
  let boundaries, _ =
    List.fold_left
      (fun (acc, off) e ->
        let off = off + Bytes.length (Journal.encode_entry e) in
        (off :: acc, off))
      ([ header_len ], header_len)
      journal_entries
  in
  let n = Bytes.length journal_bytes in
  for len = header_len to n - 1 do
    match
      Journal.decode_all ~manifest_id:journal_manifest_id
        (Bytes.sub journal_bytes 0 len)
    with
    | Error e ->
        Alcotest.failf "truncation at %d rejected the valid header: %s" len
          (Whisper_error.to_string e)
    | Ok r ->
        let at_boundary = List.mem len boundaries in
        check_bool
          (Printf.sprintf "truncation at %d torn iff mid-record" len)
          (not at_boundary) r.Journal.corrupt_tail;
        check_bool
          (Printf.sprintf "truncation at %d keeps a strict prefix" len)
          true
          (List.length r.Journal.entries < List.length journal_entries)
  done

(* ------------------------------------------------------------------ *)
(* Flat cache kernel vs the array-of-arrays oracle                    *)
(* ------------------------------------------------------------------ *)

(* The flat Cache kernel must be trace-identical to the retained
   [Cache.Reference] implementation for arbitrary geometries — including
   the degenerate corners no shipped config picks: direct-mapped
   (assoc = 1), fully associative (one set), tiny lines. *)
let test_flat_cache_equals_reference () =
  let open Whisper_pipeline in
  let rng = Rng.create (seed lxor 0xCAC4E) in
  (* both sizing spellings reject bad geometry with the same message *)
  let rejects f = match f () with _ -> None | exception Invalid_argument m -> Some m in
  check_bool "non-power-of-two sets rejected identically" true
    (rejects (fun () -> Cache.create ~entries:6 ~assoc:2 ~line_bytes:64 ())
    = rejects (fun () ->
          Cache.Reference.create ~entries:6 ~assoc:2 ~line_bytes:64 ()));
  check_bool "double sizing rejected identically" true
    (rejects (fun () -> Cache.create ~bytes:4096 ~entries:64 ~assoc:2 ~line_bytes:64 ())
    = rejects (fun () ->
          Cache.Reference.create ~bytes:4096 ~entries:64 ~assoc:2 ~line_bytes:64 ()));
  let geom_cases = max 12 (cases / 50) in
  for case = 1 to geom_cases do
    let line_bytes = 1 lsl Rng.int rng 8 in
    let log_entries = 1 + Rng.int rng 7 in
    let entries = 1 lsl log_entries in
    let assoc =
      match case mod 3 with
      | 0 -> 1 (* direct-mapped *)
      | 1 -> entries (* fully associative *)
      | _ -> 1 lsl Rng.int rng (log_entries + 1)
    in
    let flat, oracle =
      if Rng.bool rng then
        ( Cache.create ~entries ~assoc ~line_bytes (),
          Cache.Reference.create ~entries ~assoc ~line_bytes () )
      else
        let bytes = entries * line_bytes in
        ( Cache.create ~bytes ~assoc ~line_bytes (),
          Cache.Reference.create ~bytes ~assoc ~line_bytes () )
    in
    check_int "entries" entries (Cache.entries flat);
    (* a footprint a little over capacity keeps hits and misses mixed *)
    let span = entries * line_bytes * 2 in
    let ops = Array.init 2_000 (fun _ -> (Rng.int rng span, Rng.int rng 4 = 0)) in
    let replay flat oracle =
      Array.iteri
        (fun op (addr, is_probe) ->
          let a, b =
            if is_probe then (Cache.probe flat addr, Cache.Reference.probe oracle addr)
            else (Cache.access flat addr, Cache.Reference.access oracle addr)
          in
          if a <> b then
            Alcotest.failf "case %d op %d: %s diverges (seed %d)" case op
              (if is_probe then "probe" else "access")
              seed)
        ops;
      check_int "hits" (Cache.Reference.hits oracle) (Cache.hits flat);
      check_int "misses" (Cache.Reference.misses oracle) (Cache.misses flat)
    in
    replay flat oracle;
    (* [reset] restores creation state exactly: the same trace against a
       reset instance agrees with a freshly built oracle *)
    Cache.reset flat;
    replay flat (Cache.Reference.create ~entries ~assoc ~line_bytes ())
  done

(* ------------------------------------------------------------------ *)
(* Compiled predictor kernels vs the closure path                     *)
(* ------------------------------------------------------------------ *)

(* The staged [Machine.Compiled] / [Machine.Oracle] strategies must give
   byte-identical [Machine.result]s to the per-event closure path for
   arbitrary workload shapes, not just the catalog apps.  The oracle is
   the untouched closure record ([Predictor.t], or a trained runtime's
   [exec_at] over one) driven through the Indexed strategy.

   Each case is a random app replayed twice: once shorter than 1,024
   events and once longer than 2,048.  MTAGE-SC runs at its default
   geometry (9 lengths up to 1,024) and at a random one (2-12 lengths
   up to 2,048) on both, and on a third replay of 20,000-40,000 events
   in which its shortest table doubles several times, so the kernel's
   table growth is checked too.  TAGE-SC-L runs at every budget
   Fig. 21 sweeps (8 KB to 1 MB) and at an 8 KB geometry whose
   usefulness counters age every 2^10 trains, which the long replay
   always reaches; the smallest tables put usefulness to work in
   allocation most often.  The trained rows run their hybrid fills
   (decision function, then the masked TAGE-SC-L kernel) against their
   closure [exec_at]: 8b-ROMBF and an 8 KB BranchNet over random hint
   and model sets, and Whisper over a random plan. *)
let test_compiled_kernels_equal_closure_oracle () =
  let open Whisper_bpu in
  let module Machine = Whisper_pipeline.Machine in
  let rng = Rng.create (seed lxor 0xFA57) in
  let config_cases = max 5 (cases / 200) in
  let aging =
    let s = Sizes.for_budget ~kb:8 in
    { s with Sizes.tage = { s.Sizes.tage with Tage.u_reset_period = 1 lsl 10 } }
  in
  let sizes =
    Array.of_list
      (("8KB-aging", aging)
      :: List.map
           (fun kb -> (Printf.sprintf "%dKB" kb, Sizes.for_budget ~kb))
           [ 8; 16; 32; 64; 128; 256; 512; 1024 ])
  in
  for case = 1 to config_cases do
    let wl, cfg, wconfig, plan =
      random_plan rng ~name:(Printf.sprintf "fuzz-compiled-%d" case)
    in
    let mtage_geometries =
      let n_lengths = 2 + Rng.int rng 11 in
      (* [Geometric.series] needs max_len >= 8 + n_lengths - 1 *)
      let lo = n_lengths + 7 in
      let hi = if Rng.int rng 2 = 0 then 64 else 2048 in
      [ (9, 1024); (n_lengths, lo + Rng.int rng (hi - lo + 1)) ]
    in
    let real_pc () =
      cfg.Cfg.blocks.(Rng.int rng (Array.length cfg.Cfg.blocks)).Cfg.branch_pc
    in
    let rombf =
      let hints = Hashtbl.create 16 in
      for _ = 1 to 1 + Rng.int rng 24 do
        Hashtbl.replace hints (real_pc ())
          (match Rng.int rng 4 with
          | 0 -> Whisper_rombf.Rombf.Always
          | 1 -> Whisper_rombf.Rombf.Never
          | _ ->
              Whisper_rombf.Rombf.Tree
                (Whisper_formula.Tree.of_classic_id ~leaves:8
                   (Rng.int rng
                      (Whisper_formula.Tree.classic_space_size ~leaves:8))))
      done;
      { Whisper_rombf.Rombf.n = 8; hints; training_seconds = 0.0 }
    in
    let branchnet =
      let models = Hashtbl.create 16 in
      for _ = 1 to 1 + Rng.int rng (8192 / 465) do
        Hashtbl.replace models (real_pc ())
          (Whisper_branchnet.Model.create ~n_lengths:7
             ~seed:(Rng.int rng 10_000) ())
      done;
      {
        Whisper_branchnet.Branchnet.models;
        budget = Budget 8192;
        training_seconds = 0.0;
      }
    in
    let input = Rng.int rng 3 in
    (* an arena of [events] events, checked under MTAGE-SC at both
       geometries, with the helpers the other kernels' checks use *)
    let replay events =
      let arena =
        Arena.build ~events (App_model.create ~cfg ~config:wl ~input ())
      in
      let run exec = Machine.run_arena_exec ~events ~arena ~exec () in
      let diff name rc ro =
        if rc <> ro then
          Alcotest.failf
            "case %d, %d events: %s compiled result diverges (seed %d)" case
            events name seed
      in
      let indexed (p : Predictor.t) i =
        let pc = Arena.pc arena i and taken = Arena.taken arena i in
        let pred = p.Predictor.predict ~pc in
        p.Predictor.train ~pc ~taken;
        pred = taken
      in
      let compiled (c : Predictor.Compiled.t) = run (Machine.Compiled c.fill) in
      List.iter
        (fun (n_lengths, max_len) ->
          diff
            (Printf.sprintf "mtage-sc-%d/%d" n_lengths max_len)
            (compiled (Mtage.compiled ~n_lengths ~max_len ()))
            (run
               (Machine.Indexed
                  (indexed (Mtage.predictor ~n_lengths ~max_len ())))))
        mtage_geometries;
      (arena, run, diff, indexed, compiled)
    in
    ignore (replay (20_000 + Rng.int rng 20_001));
    List.iter
      (fun events ->
        let arena, run, diff, indexed, compiled = replay events in
        Array.iter
          (fun (label, s) ->
            diff ("tage-scl-" ^ label)
              (compiled (Tage_scl.compiled s))
              (run (Machine.Indexed (indexed (Tage_scl.predictor s)))))
          sizes;
        (* the ideal technique: Oracle strategy == an always-correct closure *)
        diff "ideal" (run Machine.Oracle)
          (run (Machine.Indexed (fun _ -> true)));
        (* trained rows: [decide] + the masked kernel vs [exec_at] *)
        let label, s = sizes.(Rng.int rng (Array.length sizes)) in
        let hybrid name ~create ~decide ~exec ~count =
          let rc = create () and ro = create () in
          diff (name ^ "-" ^ label)
            (run (Machine.Compiled (Tage_scl.hybrid s ~decide:(decide rc))))
            (run (Machine.Indexed (exec ro)));
          check_int (name ^ " coverage") (count ro) (count rc)
        in
        let pc i = Arena.pc arena i and taken i = Arena.taken arena i in
        let module R = Whisper_rombf.Rombf.Runtime in
        hybrid "8b-rombf"
          ~create:(fun () -> R.create rombf ~baseline:(Tage_scl.predictor s))
          ~decide:(fun rt i -> R.decide rt ~pc:(pc i) ~taken:(taken i))
          ~exec:(fun rt i -> R.exec_at rt ~pc:(pc i) ~taken:(taken i))
          ~count:R.hinted_predictions;
        let module B = Whisper_branchnet.Branchnet.Runtime in
        hybrid "8KB-branchnet"
          ~create:(fun () ->
            B.create branchnet ~baseline:(Tage_scl.predictor s))
          ~decide:(fun rt i -> B.decide rt ~pc:(pc i) ~taken:(taken i))
          ~exec:(fun rt i -> B.exec_at rt ~pc:(pc i) ~taken:(taken i))
          ~count:B.covered_predictions;
        let module W = Whisper_core.Runtime in
        hybrid "whisper"
          ~create:(fun () ->
            W.create wconfig ~baseline:(Tage_scl.predictor s) ~plan)
          ~decide:(fun rt i ->
            W.decide rt ~block:(Arena.block arena i) ~pc:(pc i)
              ~taken:(taken i))
          ~exec:(fun rt i -> W.exec_arena rt ~arena i)
          ~count:W.hinted_predictions)
      [ 1 + Rng.int rng 1_023; 2_049 + Rng.int rng 2_000 ]
  done

(* ------------------------------------------------------------------ *)
(* Training kernels vs the per-bit / dense oracles                    *)
(* ------------------------------------------------------------------ *)

(* BranchNet's decode-once SGD kernel and ROMBF's occupied-key scoring
   must train exactly what the straightforward code in test/oracle
   trains.  Random sample sets cover every model shape the kernel
   handles (1-8 hidden units, 1-8 feature bytes, 0-600 samples, feature
   ints wider than a byte, a learning rate large enough that samples
   pass the hinge margin and stop updating); every weight must match
   under [Int64.bits_of_float], and [forward] must return the same bits
   on random inputs.  Real profiles of two apps then check the deployed
   BranchNet models at every budget and the chosen ROMBF hints at both
   widths. *)
let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

(* A kernel model's weights against an oracle model's, bit for bit. *)
let same_weights what m o =
  let w1, w2 = Whisper_branchnet.Model.weights m
  and o1, o2 = Whisper_oracle.Branchnet_ref.Model.weights o in
  Array.iteri
    (fun h row ->
      Array.iteri
        (fun i w ->
          if not (same_bits w o1.(h).(i)) then
            Alcotest.failf "%s: w1.(%d).(%d) = %h, oracle %h (seed %d)" what h
              i w o1.(h).(i) seed)
        row)
    w1;
  Array.iteri
    (fun h w ->
      if not (same_bits w o2.(h)) then
        Alcotest.failf "%s: w2.(%d) = %h, oracle %h (seed %d)" what h w o2.(h)
          seed)
    w2

let test_training_kernels_equal_oracle () =
  let module M = Whisper_branchnet.Model in
  let module O = Whisper_oracle.Branchnet_ref in
  let rng = Rng.create (seed lxor 0x5EED) in
  let past_margin = ref 0 in
  (* one scratch across every shape, as a runtime reuses its own *)
  let sc = M.scratch () in
  let set_cases = max 20 (cases / 10) in
  for case = 1 to set_cases do
    let hidden = 1 + Rng.int rng 8 and n_lengths = 1 + Rng.int rng 8 in
    let n =
      match case mod 5 with
      | 0 -> 0
      | 1 -> 1 + Rng.int rng 8
      | _ -> Rng.int rng 601
    in
    (* some samples carry a spare byte, some ints wider than a byte *)
    let width = n_lengths + Rng.int rng 2 in
    let byte () =
      if Rng.int rng 8 = 0 then Rng.int rng 0x10000 else Rng.int rng 256
    in
    let xs = Array.init n (fun _ -> Array.init width (fun _ -> byte ())) in
    let ys = Array.init n (fun _ -> Rng.bool rng) in
    let epochs = Rng.int rng 9 in
    let lr = [| 0.001; 0.05; 0.3; 2.0 |].(Rng.int rng 4) in
    let mseed = Rng.int rng 100_000 in
    let m = M.create ~hidden ~n_lengths ~seed:mseed () in
    let o = O.Model.create ~hidden ~n_lengths ~seed:mseed () in
    M.train_sgd m ~xs ~ys ~epochs ~lr;
    O.Model.train_sgd o ~xs ~ys ~epochs ~lr;
    let what =
      Printf.sprintf "case %d (hidden %d, bytes %d, %d samples, %d epochs, lr %g)"
        case hidden n_lengths n epochs lr
    in
    same_weights what m o;
    Array.iteri
      (fun s features ->
        let target = if ys.(s) then 1.0 else -1.0 in
        if target *. O.Model.forward o ~features >= 1.0 then incr past_margin)
      xs;
    for _ = 1 to 8 do
      let features = Array.init width (fun _ -> byte ()) in
      let a = M.forward m ~features and b = O.Model.forward o ~features in
      if not (same_bits a b && M.predict_with sc m ~features = (b >= 0.0))
      then
        Alcotest.failf "%s: forward %h, oracle %h (seed %d)" what a b seed
    done
  done;
  check_bool "some samples end past the hinge margin" true (!past_margin > 0);
  (* models or hints deployed per row, summed over both apps *)
  let deployed = Hashtbl.create 8 in
  let count what k =
    let so_far = Option.value ~default:0 (Hashtbl.find_opt deployed what) in
    Hashtbl.replace deployed what (so_far + k)
  in
  List.iter
    (fun name ->
      let ctx = Whisper_sim.Runner.create_ctx ~events:60_000 () in
      let profile =
        Whisper_sim.Runner.profile ctx (Option.get (Workloads.by_name name))
      in
      List.iter
        (fun (label, budget, ref_budget) ->
          let what = Printf.sprintf "%s %s" name label in
          let spec = Whisper_branchnet.Branchnet.train ~budget profile in
          let expected = O.train ?budget:ref_budget profile in
          check_int (what ^ " models") (List.length expected)
            (Whisper_branchnet.Branchnet.model_count spec);
          List.iter
            (fun (pc, o) ->
              match
                Hashtbl.find_opt spec.Whisper_branchnet.Branchnet.models pc
              with
              | None -> Alcotest.failf "%s: no model for pc %#x" what pc
              | Some m ->
                  same_weights (Printf.sprintf "%s pc %#x" what pc) m o)
            expected;
          count label (List.length expected))
        Whisper_branchnet.Branchnet.
          [
            ("8KB", Budget 8192, Some 8192);
            ("32KB", Budget 32768, Some 32768);
            ("unlimited", Unlimited, None);
          ];
      List.iter
        (fun n ->
          let what = Printf.sprintf "%s %db-rombf" name n in
          let spec = Whisper_rombf.Rombf.train ~n profile in
          let expected = Whisper_oracle.Rombf_ref.train ~n profile in
          check_int (what ^ " hints") (List.length expected)
            (Whisper_rombf.Rombf.hint_count spec);
          List.iter
            (fun (pc, o) ->
              let same =
                match (Hashtbl.find_opt spec.Whisper_rombf.Rombf.hints pc, o)
                with
                | Some Whisper_rombf.Rombf.Always, Whisper_oracle.Rombf_ref.Always
                | Some Never, Never ->
                    true
                | Some (Tree t), Tree u ->
                    Whisper_formula.Tree.(to_id t = to_id u)
                | _ -> false
              in
              if not same then
                Alcotest.failf "%s: hint for pc %#x differs" what pc)
            expected;
          count (Printf.sprintf "%db-rombf" n) (List.length expected))
        [ 4; 8 ])
    [ "python"; "mysql" ];
  Hashtbl.iter
    (fun what k ->
      check_bool (what ^ " deploys on the real profiles") true (k > 0))
    deployed

(* ------------------------------------------------------------------ *)
(* One BranchNet walk shared by every budget                          *)
(* ------------------------------------------------------------------ *)

(* 80 candidate branches, a seventh of them with too few samples to
   train, and a third whose direction is noise: a walk over it both
   accepts and rejects, and a 64 KB budget outlasts it. *)
let synthetic_profile rng =
  let p = Profile.create_empty ~lengths:Workloads.lengths () in
  let hashes = Array.make (Array.length Workloads.lengths) 0 in
  for b = 0 to 79 do
    let pc = 0x8000 + (b * 4) in
    let n = if b mod 7 = 0 then Rng.int rng 16 else 16 + Rng.int rng 240 in
    let bit = Rng.int rng 56 and learnable = Rng.int rng 3 > 0 in
    for _ = 1 to n do
      let raw56 = Rng.bits rng 56 in
      let taken =
        if learnable then (raw56 lsr bit) land 1 = 1 else Rng.bool rng
      in
      let correct = Rng.bernoulli rng 0.6 in
      Profile.record_event p ~pc ~taken ~correct ~instrs:8;
      Profile.add_sample ~raw56 p ~pc ~raw8:(raw56 land 0xFF) ~hashes ~taken
        ~correct
    done
  done;
  p

(* Budgets taken from one walk in random order must each deploy what a
   fresh [Branchnet.train] and the oracle walk deploy: the same pcs in
   the same insertion order (equal Marshal bytes of the tables) with
   bit-identical weights.  A walk trains no candidate past the last
   acceptance a budget needs: a fresh walk for that budget alone, and
   the shared walk for the largest budget so far. *)
let test_shared_walk_equals_fresh_train () =
  let module B = Whisper_branchnet.Branchnet in
  let module O = Whisper_oracle.Branchnet_ref in
  let rng = Rng.create (seed lxor 0xB4A2) in
  let model_bytes =
    O.Model.storage_bytes (O.Model.create ~n_lengths:O.feature_bytes ~seed:0 ())
  in
  let real name =
    let ctx = Whisper_sim.Runner.create_ctx ~events:60_000 () in
    (name, Whisper_sim.Runner.profile ctx (Option.get (Workloads.by_name name)))
  in
  List.iter
    (fun (name, profile) ->
      let trainable =
        List.filter
          (fun pc -> Profile.n_samples profile ~pc >= 16)
          (Array.to_list (Profile.candidates profile))
      in
      let acceptances =
        List.map fst (O.train ~max_models:max_int profile)
      in
      (* the candidates a walk trains to reach its k-th acceptance *)
      let trained_for k =
        if k <= 0 then 0
        else
          match List.nth_opt acceptances (k - 1) with
          | None -> List.length trainable
          | Some last ->
              let rec upto i = function
                | [] -> i
                | pc :: rest -> if pc = last then i + 1 else upto (i + 1) rest
              in
              upto 0 trainable
      in
      let trained = ref 0 in
      let walk = B.walk ~on_train:(fun () -> incr trained) profile in
      let requests =
        Array.of_list
          (List.map
             (fun b -> (B.Budget b, None))
             ([ 0; 464; 465; 930; 8192; 32768 ]
             @ List.init 3 (fun _ -> Rng.int rng 65537))
          @ [ (B.Unlimited, Some (Rng.int rng 300)) ])
      in
      Rng.shuffle rng requests;
      let needed = ref 0 in
      Array.iter
        (fun (budget, max_models) ->
          let what, k =
            match budget with
            | B.Budget b ->
                (Printf.sprintf "%s %d bytes" name b, b / model_bytes)
            | B.Unlimited ->
                let m = Option.get max_models in
                (Printf.sprintf "%s unlimited (max %d)" name m, m)
          in
          let shared = B.take ?max_models walk budget in
          let fresh = B.train ~budget ?max_models profile in
          let expected =
            O.train
              ?budget:(match budget with B.Budget b -> Some b | _ -> None)
              ?max_models profile
          in
          let in_order = Hashtbl.create 64 in
          List.iter (fun (pc, _) -> Hashtbl.replace in_order pc ()) expected;
          let keys tbl = List.of_seq (Hashtbl.to_seq_keys tbl) in
          check_bool (what ^ ": pcs and insertion order") true
            (keys shared.B.models = keys in_order
            && keys fresh.B.models = keys in_order);
          check_bool (what ^ ": Marshal bytes equal a fresh train") true
            (Marshal.to_string shared.B.models []
            = Marshal.to_string fresh.B.models []);
          List.iter
            (fun (pc, o) ->
              same_weights
                (Printf.sprintf "%s pc %#x" what pc)
                (Hashtbl.find shared.B.models pc)
                o)
            expected;
          let alone = ref 0 in
          ignore
            (B.take ?max_models
               (B.walk ~on_train:(fun () -> incr alone) profile)
               budget);
          check_int (what ^ ": candidates a fresh walk trains") (trained_for k)
            !alone;
          needed := max !needed k;
          check_int (what ^ ": candidates the shared walk trained")
            (trained_for !needed) !trained)
        requests)
    [ real "python"; real "mysql"; ("synthetic", synthetic_profile rng) ]

(* ------------------------------------------------------------------ *)
(* Generator and profile passes vs the pre-rewrite oracles            *)
(* ------------------------------------------------------------------ *)

(* The bitmap-history generator, the unboxed SplitMix64 and the
   dense-id profile passes must reproduce, byte for byte, what the code
   they replaced (kept in test/oracle) produces:
   - Rng: every draw of the interface over random seeds and bounds, and
     [sample_cumulative] against [sample_weighted];
   - arenas of random fleet apps x inputs x phases x event counts (0, 1,
     7, under 1,024, over 2,048) with non-default length series and
     hash widths, the library's events taken by fills split at random
     points with single [source] events interleaved;
   - hand-built behaviours with windows at and beyond the 62-bit
     register and the history depth, over length series up to 2,048,
     checking every fold and outcome as well as every direction;
   - Profile_io bytes over random collection parameters and length
     series, from arena and closure sources alike. *)
let test_generator_and_profile_equal_oracle () =
  let module G = Whisper_oracle.Generator_ref in
  let rng = Rng.create (seed lxor 0x6E4E) in
  let fail fmt = Alcotest.failf ("%s (seed %d): " ^^ fmt) "oracle" seed in
  (* -- Rng -- *)
  for case = 1 to max 20 (cases / 20) do
    let s = Rng.int rng 1_000_000 - 500_000 in
    let a = Rng.create s and b = G.Rng.create s in
    for step = 1 to 200 do
      let same =
        match Rng.int rng 12 with
        | 0 -> Rng.next a = G.Rng.next b
        | 1 ->
            let bound = 1 + Rng.int rng (if Rng.bool rng then 10 else max_int) in
            Rng.int a bound = G.Rng.int b bound
        | 2 ->
            let n = Rng.int rng 63 in
            Rng.bits a n = G.Rng.bits b n
        | 3 -> Int64.bits_of_float (Rng.float a 3.5) = Int64.bits_of_float (G.Rng.float b 3.5)
        | 4 -> Rng.bool a = G.Rng.bool b
        | 5 -> Rng.bernoulli a 0.3 = G.Rng.bernoulli b 0.3
        | 6 -> Rng.geometric a 0.2 = G.Rng.geometric b 0.2
        | 7 -> Rng.permutation a 17 = G.Rng.permutation b 17
        | 8 -> Rng.next (Rng.split a) = G.Rng.next (G.Rng.split b)
        | 9 -> Rng.next (Rng.copy a) = G.Rng.next (G.Rng.copy b)
        | 10 -> Rng.choose a [| 1; 2; 3; 4; 5 |] = G.Rng.choose b [| 1; 2; 3; 4; 5 |]
        | _ ->
            let w =
              Array.init (1 + Rng.int rng 40) (fun i ->
                  ((if Rng.int rng 5 = 0 then 0.0 else Rng.float rng 2.0), i))
            in
            w.(0) <- (1.0, 0);
            Rng.sample_cumulative a (Rng.running_sums (Array.map fst w))
            = G.Rng.sample_weighted b w
      in
      if not same then fail "Rng case %d step %d diverges" case step
    done
  done;
  let random_lengths n =
    Array.init n (fun _ -> 1 + Rng.int rng (if Rng.bool rng then 64 else 2_048))
  in
  (* -- arenas -- *)
  let events_of k =
    match k mod 5 with
    | 0 -> 0
    | 1 -> 1
    | 2 -> 7
    | 3 -> Rng.int rng 1_024
    | _ -> 2_049 + Rng.int rng 2_000
  in
  for case = 1 to max 10 (cases / 50) do
    let config = Workloads.sample ~seed:(Rng.int rng 100) ~index:(Rng.int rng 40) in
    let cfg = Workloads.build_cfg config in
    let input = Rng.int rng 4 and phase = Rng.int rng 3 in
    let lengths, chunk =
      if Rng.bool rng then (Workloads.lengths, 8)
      else
        ( Array.init 16 (fun _ -> 1 + Rng.int rng 2_048),
          1 + Rng.int rng 8 )
    in
    let events = events_of case in
    let m = App_model.create ~lengths ~chunk ~phase ~cfg ~config ~input () in
    let o = G.App_model.create ~lengths ~chunk ~phase ~cfg ~config ~input () in
    let next = App_model.source m and o_next = G.App_model.source o in
    let i = ref 0 in
    while !i < events do
      let piece =
        if Rng.int rng 4 = 0 then begin
          let e = next () in
          Arena.of_source ~events:1 (fun () -> e)
        end
        else Arena.build ~events:(Rng.int rng (events - !i + 1)) m
      in
      for j = 0 to Arena.length piece - 1 do
        let e = Arena.event piece j and r = o_next () in
        if e <> r then
          fail "arena case %d (%s, input %d, phase %d): event %d diverges"
            case config.Workloads.name input phase (!i + j)
      done;
      i := !i + Arena.length piece
    done;
    if events = 0 && Arena.length (Arena.build ~events:0 m) <> 0 then
      fail "empty arena case %d" case
  done;
  (* -- hand-built behaviours -- *)
  let space = Whisper_formula.Tree.space_size ~leaves:Behavior.formula_leaves in
  for case = 1 to max 20 (cases / 20) do
    let lengths = random_lengths (1 + Rng.int rng 20) in
    let chunk = 1 + Rng.int rng 8 in
    let depth = max 64 (2 * Array.fold_left max 1 lengths) in
    let n_branches = 1 + Rng.int rng 8 in
    let behaviours =
      Array.init (1 + Rng.int rng 12) (fun _ ->
          let kind : Behavior.kind =
            match Rng.int rng 9 with
            | 0 -> Always_taken
            | 1 -> Never_taken
            | 2 -> Bias (Rng.float rng 1.0)
            | 3 -> Loop { period = 1 + Rng.int rng 30 }
            | 4 -> Short_formula { len = Rng.int rng 63; table = Rng.bits rng 62 }
            | 5 ->
                Hashed_formula
                  { len_idx = Rng.int rng (Array.length lengths); formula_id = Rng.int rng space }
            | 6 ->
                let len =
                  match Rng.int rng 3 with
                  | 0 -> 1 + Rng.int rng 62
                  | 1 -> 62 + Rng.int rng 40
                  | _ -> depth - 20 + Rng.int rng 60
                in
                let step =
                  if Rng.int rng 4 = 0 then [| 61; 62; 63; 64; max_int |].(Rng.int rng 5)
                  else 1 + Rng.int rng 5
                in
                Parity { len; step }
            | 7 -> Ctx_prf { len = Rng.int rng 63; seed = Rng.bits rng 30; p_taken = Rng.float rng 1.0 }
            | _ -> Random (Rng.float rng 1.0)
          in
          let noise =
            match Rng.int rng 3 with 0 -> 0.0 | 1 -> Rng.float rng 0.1 | _ -> 1.0
          in
          { Behavior.kind; noise })
    in
    let ctx = Behavior.make_ctx ~lengths ~n_branches ~chunk in
    let octx = G.Behavior.make_ctx ~lengths ~n_branches ~chunk in
    let s = Rng.int rng 1_000_000 in
    let a = Rng.create s and b = G.Rng.create s in
    for step = 1 to 300 + Rng.int rng (3 * depth) do
      let branch = Rng.int rng n_branches in
      let beh = behaviours.(Rng.int rng (Array.length behaviours)) in
      let tk = Behavior.eval ctx ~rng:a ~branch beh in
      if tk <> G.Behavior.eval octx ~rng:b ~branch beh then
        fail "behaviour case %d step %d: %s diverges" case step
          (Format.asprintf "%a" Behavior.pp beh);
      Behavior.record ctx tk;
      G.Behavior.record octx tk;
      let age = Rng.int rng (depth + 8) in
      if
        Behavior.outcome ctx age <> G.Behavior.outcome octx age
        || Array.exists
             (fun k -> Behavior.hash_at ctx k <> G.Behavior.hash_at octx k)
             (Array.init (Array.length lengths) Fun.id)
      then fail "behaviour case %d step %d: history diverges" case step
    done;
    (* windows past the register are refused on both sides *)
    let wide = { Behavior.kind = Short_formula { len = 63; table = 1 }; noise = 0.0 } in
    let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
    if
      not
        (raises (fun () -> Behavior.eval ctx ~rng:a ~branch:0 wide)
        && raises (fun () -> G.Behavior.eval octx ~rng:b ~branch:0 wide))
    then fail "behaviour case %d: a 63-outcome window was accepted" case
  done;
  (* -- profiles -- *)
  for case = 1 to max 10 (cases / 50) do
    let config = Workloads.sample ~seed:(Rng.int rng 100) ~index:(Rng.int rng 40) in
    let cfg = Workloads.build_cfg config in
    let input = Rng.int rng 3 in
    let n = events_of case in
    let arena = Arena.build ~events:n (App_model.create ~cfg ~config ~input ()) in
    let events = if Rng.int rng 4 = 0 then Rng.int rng (n + 1) else n in
    let lengths = random_lengths (1 + Rng.int rng 16) in
    let chunk = 1 + Rng.int rng 12 in
    let max_candidates = if Rng.bool rng then 2048 else Rng.int rng 64 in
    (* at least one sample: the oracle's profile is built through
       [Profile.add_sample], which cannot leave a candidate with an empty
       reservoir as collection does at [max_samples = 0] *)
    let min_mispred = Rng.int rng 10 and max_samples = 1 + Rng.int rng 40 in
    let pseed = Rng.int rng 1000 in
    let make_predictor () =
      if pseed land 1 = 0 then Whisper_sim.Runner.lbr_predictor 8 ()
      else
        let r = Rng.create pseed in
        fun ~pc:_ ~taken:_ -> Rng.int r 4 <> 0
    in
    let bytes p = Bytes.to_string (Profile_io.to_bytes p) in
    let lib =
      Profile.collect_arena ~max_candidates ~min_mispred ~max_samples ~chunk
        ~lengths ~events ~arena ~make_predictor ()
    in
    let oracle =
      Whisper_oracle.Profile_ref.collect_arena ~max_candidates ~min_mispred
        ~max_samples ~chunk ~lengths ~events ~arena ~make_predictor ()
    in
    if bytes lib <> bytes oracle then fail "profile case %d (arena) diverges" case;
    let make_source () = App_model.source (App_model.create ~cfg ~config ~input ()) in
    let lib =
      Profile.collect ~max_candidates ~min_mispred ~max_samples ~chunk ~lengths
        ~events ~make_source ~make_predictor ()
    in
    if bytes lib <> bytes oracle then fail "profile case %d (closure) diverges" case;
    let oracle =
      Whisper_oracle.Profile_ref.collect ~max_candidates ~min_mispred
        ~max_samples ~chunk ~lengths ~events ~make_source ~make_predictor ()
    in
    if bytes lib <> bytes oracle then fail "profile case %d (closure oracle) diverges" case
  done

(* ------------------------------------------------------------------ *)
(* Bit-parallel truth tables vs the per-input eval loop               *)
(* ------------------------------------------------------------------ *)

(* Every formula id at 2, 4 and 8 leaves: the byte and the packed table
   of the wordwise build equal the eval loop's in test/oracle. *)
let test_truth_tables_equal_eval () =
  let module T = Whisper_formula.Tree in
  let module O = Whisper_oracle.Tree_ref in
  List.iter
    (fun leaves ->
      for id = 0 to T.space_size ~leaves - 1 do
        let t = T.of_id ~leaves id in
        if T.truth_table t <> O.truth_table t then
          Alcotest.failf "%d leaves, id %d: byte table differs" leaves id;
        if T.packed_truth_table t <> O.packed_truth_table t then
          Alcotest.failf "%d leaves, id %d: packed table differs" leaves id
      done)
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Adversarial (not random) inputs                                    *)
(* ------------------------------------------------------------------ *)

let test_malicious_varint () =
  (* 10 continuation bytes claim > 62 bits of payload *)
  let b = Bytes.make 10 '\xFF' in
  match Binio.Reader.varint (Binio.Reader.create b) with
  | _ -> Alcotest.fail "overflowing varint accepted"
  | exception
      Whisper_error.Error
        { kind = Whisper_error.Varint_overflow; offset = Some off; _ } ->
      check_int "offending byte offset" 8 off

let test_malicious_count () =
  (* a profile whose sample count points far past the input must be
     rejected without allocating for it *)
  let w = Binio.Writer.create () in
  Binio.Writer.magic w "WPRF";
  Binio.Writer.varint w 1 (* version *);
  Binio.Writer.varint w 1_000_000_000 (* lengths count: absurd *);
  match Profile_io.of_bytes (Binio.Writer.contents w) with
  | Ok _ -> Alcotest.fail "absurd count accepted"
  | Error e ->
      check_bool "typed as count overflow" true
        (match e.Whisper_error.kind with
        | Whisper_error.Count_overflow _ -> true
        | _ -> false)

let test_fault_operators_deterministic () =
  (* two injectors with the same seed agree on every decision and every
     corruption; a different seed disagrees somewhere *)
  let keys = List.init 200 (Printf.sprintf "work-item-%d") in
  let mk seed = Whisper_util.Fault.create ~seed ~rate:0.5 () in
  let f1 = mk 11 and f2 = mk 11 and f3 = mk 12 in
  check_bool "same seed, same decisions" true
    (List.for_all
       (fun key ->
         Whisper_util.Fault.decision f1 ~key
         = Whisper_util.Fault.decision f2 ~key)
       keys);
  check_bool "same seed, same corruption" true
    (List.for_all
       (fun key ->
         Whisper_util.Fault.corrupt f1 ~key trace_bytes
         = Whisper_util.Fault.corrupt f2 ~key trace_bytes)
       keys);
  check_bool "different seed differs somewhere" true
    (List.exists
       (fun key ->
         Whisper_util.Fault.decision f1 ~key
         <> Whisper_util.Fault.decision f3 ~key)
       keys);
  (* roughly rate-many keys are hit (binomial, wide tolerance) *)
  let hit =
    List.length
      (List.filter
         (fun key -> Whisper_util.Fault.decision f1 ~key <> Whisper_util.Fault.Pass)
         keys)
  in
  check_bool "injection rate in the right ballpark" true (hit > 50 && hit < 150)

let test_fault_corruption_is_decodable_failure () =
  (* whatever a byte operator does to an artifact, the decoder's answer
     is a typed verdict — the injector never produces a crash vector *)
  let f = Whisper_util.Fault.create ~seed:3 ~rate:1.0 () in
  List.iteri
    (fun i (name, good, decode) ->
      for k = 0 to 99 do
        let key = Printf.sprintf "%s/%d/%d" name i k in
        let bad = Whisper_util.Fault.corrupt f ~key good in
        match decode bad with
        | Some _ | None -> ()
        | exception e ->
            Alcotest.failf "%s raised %s under injected corruption" name
              (Printexc.to_string e)
      done)
    decoders

let () =
  Alcotest.run "whisper_fuzz"
    [
      ( "fuzz",
        Alcotest.
          [
            test_case "decoders are total" `Quick test_decoders_total;
            test_case "fuzz stream deterministic" `Quick
              test_fuzz_deterministic;
            test_case "packed scorer equals naive scorer" `Quick
              test_scorer_equivalence;
            test_case "compiled runtime equals oracle on random plans" `Quick
              test_compiled_runtime_equals_oracle_random_plans;
            test_case "arena replay equals closure replay" `Quick
              test_arena_replay_equals_closure_random_configs;
            test_case "flat cache equals reference cache" `Quick
              test_flat_cache_equals_reference;
            test_case "compiled kernels equal closure oracle" `Quick
              test_compiled_kernels_equal_closure_oracle;
            test_case "corrupt cached arena regenerates" `Quick
              test_arena_cache_chaos_drop_and_regenerate;
            test_case "journal recovery keeps only the original prefix" `Quick
              test_journal_recovery_prefix_under_corruption;
            test_case "journal recovery at every truncation point" `Quick
              test_journal_every_truncation_point;
            test_case "malicious varint" `Quick test_malicious_varint;
            test_case "malicious count" `Quick test_malicious_count;
            test_case "fault injector deterministic" `Quick
              test_fault_operators_deterministic;
            test_case "injected corruption decodes to errors" `Quick
              test_fault_corruption_is_decodable_failure;
            test_case "training kernels equal oracle" `Quick
              test_training_kernels_equal_oracle;
            test_case "generator and profile passes equal oracle" `Quick
              test_generator_and_profile_equal_oracle;
            test_case "shared BranchNet walk equals fresh training" `Quick
              test_shared_walk_equals_fresh_train;
            test_case "bit-parallel truth tables equal eval" `Quick
              test_truth_tables_equal_eval;
          ] );
    ]
