(* Continuous-profiling service mode.

   What must hold:
   - Mergeset's bounded lexicographic-smallest selection is associative,
     commutative and delivery-order independent (the algebra the chunk
     accumulator's byte-identity promise rests on);
   - any permutation of the same chunk multiset accumulates to a
     byte-identical materialized profile AND an identical hint plan;
   - re-delivering an ingested chunk is a counted no-op; corrupt or
     truncated chunks are typed errors that leave the accumulator
     untouched;
   - the arena collector serve chunks go through encodes byte-identical
     chunks (hence chunk ids) to the closure oracle;
   - a chunk whose length series took a bit flip but still decodes is a
     typed quarantine, not an exception;
   - the WRSC plan codec round-trips and is content-stable;
   - a serve scenario interrupted any number of times (max_steps — the
     in-process stand-in for kill -9) and resumed produces a ledger
     byte-identical to an uninterrupted run, faults included;
   - the scripted phase flip drives coverage down, triggers re-analysis
     and recovers (check_recovery holds);
   - the rollout rule prefers the incumbent on a strict loss;
   - out-of-range numeric settings are named Invalid_arguments in the
     library and usage errors (exit 124) on the command line.

   State dirs go through Test_dirs so runtest leaves nothing behind. *)

open Whisper_util
open Whisper_trace
open Whisper_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Mergeset                                                           *)
(* ------------------------------------------------------------------ *)

let record_of_int stride v =
  let b = Bytes.create stride in
  for i = 0 to stride - 1 do
    Bytes.set b i (Char.chr ((v lsr (8 * (stride - 1 - i))) land 0xFF))
  done;
  b

(* reference semantics: sort every offered record, keep the cap smallest *)
let reference_contents ~stride ~cap records =
  let sorted = List.sort Bytes.compare (List.map (record_of_int stride) records) in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  Bytes.concat Bytes.empty (take cap sorted)

let qcheck_mergeset_orders =
  QCheck.Test.make ~name:"mergeset: any insertion order, same bytes" ~count:300
    QCheck.(pair (list (int_bound 0xFFFF)) (int_bound 60))
    (fun (records, salt) ->
      let stride = 3 and cap = 7 in
      let ingest order =
        let s = Mergeset.create ~stride ~cap in
        List.iter (fun v -> Mergeset.add s (record_of_int stride v) ~off:0) order;
        s
      in
      let shuffled =
        let a = Array.of_list records in
        let rng = Rng.create (salt + 1) in
        for i = Array.length a - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        Array.to_list a
      in
      let s1 = ingest records and s2 = ingest shuffled in
      (* split-merge grouping: first half and second half in separate
         sets, then add_all *)
      let n = List.length records in
      let s3 = ingest (List.filteri (fun i _ -> i < n / 2) records) in
      let s4 = ingest (List.filteri (fun i _ -> i >= n / 2) records) in
      Mergeset.add_all s3 ~other:s4;
      let expect = reference_contents ~stride ~cap records in
      Mergeset.contents s1 = expect
      && Mergeset.contents s2 = expect
      && Mergeset.contents s3 = expect
      && Mergeset.equal s1 s2
      && Mergeset.seen s1 = n)

let test_mergeset_basics () =
  let s = Mergeset.create ~stride:2 ~cap:3 in
  check_int "empty" 0 (Mergeset.length s);
  List.iter
    (fun v -> Mergeset.add s (record_of_int 2 v) ~off:0)
    [ 0x0202; 0x0101; 0x0303; 0x0101; 0x0404 ];
  check_int "capped" 3 (Mergeset.length s);
  check_int "seen counts drops" 5 (Mergeset.seen s);
  (* duplicates are multiset members: 0101 0101 0202 survive the cap *)
  check_string "smallest kept, duplicates included" "010101010202"
    (let b = Mergeset.contents s in
     String.concat ""
       (List.init (Bytes.length b) (fun i ->
            Printf.sprintf "%02x" (Char.code (Bytes.get b i)))));
  (* self add_all doubles every kept record deterministically *)
  Mergeset.add_all s ~other:s;
  check_string "self-merge is snapshot-safe" "010101010101"
    (let b = Mergeset.contents s in
     String.concat ""
       (List.init (Bytes.length b) (fun i ->
            Printf.sprintf "%02x" (Char.code (Bytes.get b i)))))

(* ------------------------------------------------------------------ *)
(* Chunks and the accumulator                                         *)
(* ------------------------------------------------------------------ *)

let tiny_config =
  {
    (Option.get (Workloads.by_name "finagle-http")) with
    Workloads.name = "serve-test";
    functions = 24;
    seed = 17;
  }

let tiny_cfg = Workloads.build_cfg tiny_config

(* a real collected chunk profile, phase/input-parameterized *)
let collect_profile ?(phase = 0) ~input ~events () =
  Profile.collect ~max_samples:64 ~lengths:Workloads.lengths ~events
    ~make_source:(fun () ->
      App_model.source
        (App_model.create ~phase ~cfg:tiny_cfg ~config:tiny_config ~input ()))
    ~make_predictor:(Whisper_sim.Runner.lbr_predictor 64)
    ()

let profile_bytes p = Profile_io.to_bytes p

let test_chunk_roundtrip () =
  let p = collect_profile ~input:0 ~events:20_000 () in
  let b = Profile_chunk.encode ~app:"serve-test" ~seq:5 p in
  match Profile_chunk.decode b with
  | Error e -> Alcotest.failf "decode failed: %s" (Whisper_error.to_string e)
  | Ok c ->
      check_string "app" "serve-test" c.Profile_chunk.app;
      check_int "seq" 5 c.Profile_chunk.seq;
      (* Profile_io.to_bytes is insertion-order sensitive, so compare
         through the canonical merge, not the raw image *)
      let canon q =
        profile_bytes
          (Profile_chunk.merge_profiles ~max_samples:64
             ~lengths:Workloads.lengths [ q ])
      in
      check_bool "profile canonically identical" true
        (canon p = canon c.Profile_chunk.profile);
      check_bool "content key is stable" true
        (Profile_chunk.id b = Profile_chunk.id (Bytes.copy b))

let test_chunk_permutation_identity () =
  (* real chunks, both phases mixed in: any delivery order accumulates
     to the same bytes and the same plan *)
  let chunks =
    List.init 4 (fun i ->
        collect_profile ~phase:(i mod 2) ~input:i ~events:30_000 ())
  in
  let ingest order =
    let a = Profile_chunk.create_accum ~max_samples:64 ~lengths:Workloads.lengths () in
    List.iter
      (fun i ->
        match
          Profile_chunk.ingest_profile a ~id:(string_of_int i)
            (List.nth chunks i)
        with
        | Profile_chunk.Added _ -> ()
        | Profile_chunk.Duplicate _ -> Alcotest.fail "unexpected duplicate")
      order;
    Profile_chunk.profile a
  in
  let p1 = ingest [ 0; 1; 2; 3 ]
  and p2 = ingest [ 3; 1; 0; 2 ]
  and p3 = ingest [ 2; 3; 1; 0 ] in
  check_bool "bytes order-independent" true
    (profile_bytes p1 = profile_bytes p2 && profile_bytes p2 = profile_bytes p3);
  check_bool "one-shot merge agrees" true
    (profile_bytes p1
    = profile_bytes
        (Profile_chunk.merge_profiles ~max_samples:64 ~lengths:Workloads.lengths
           chunks));
  let plan_of p = (Analyze.run p).Analyze.decisions in
  check_string "plans identical" (Rescore.digest (plan_of p1))
    (Rescore.digest (plan_of p2))

let qcheck_accum_permutation =
  (* synthetic chunks across a shared pc set, wider order coverage than
     the collected-profile case can afford *)
  QCheck.Test.make ~name:"accum: chunk permutations, same bytes" ~count:60
    QCheck.(int_bound 0xFFFF)
    (fun seed ->
      let lengths = Workloads.lengths in
      let synth k =
        let p = Profile.create_empty ~lengths () in
        let rng = Rng.create ((seed * 31) + k) in
        List.iter
          (fun pc ->
            for _ = 1 to 20 + Rng.int rng 30 do
              Profile.record_event p ~pc ~taken:(Rng.bool rng)
                ~correct:(Rng.bernoulli rng 0.7) ~instrs:6
            done;
            for s = 1 to 10 + Rng.int rng 20 do
              Profile.add_sample p ~pc ~raw8:(Rng.int rng 256)
                ~raw56:(Rng.int rng 1_000_000)
                ~hashes:
                  (Array.init (Array.length lengths) (fun _ -> Rng.int rng 256))
                ~taken:(Rng.bool rng) ~correct:(s mod 4 <> 0)
            done)
          [ 0x4010; 0x4020; 0x4030 ];
        p
      in
      let chunks = List.init 5 synth in
      let ingest order =
        let a = Profile_chunk.create_accum ~max_samples:24 ~lengths () in
        List.iter
          (fun i ->
            ignore
              (Profile_chunk.ingest_profile a ~id:(string_of_int i)
                 (List.nth chunks i)))
          order;
        profile_bytes (Profile_chunk.profile a)
      in
      let rng = Rng.create (seed + 7) in
      let perm = Rng.permutation rng 5 in
      ingest [ 0; 1; 2; 3; 4 ] = ingest (Array.to_list perm))

let test_duplicate_is_counted_noop () =
  let a =
    Profile_chunk.create_accum ~max_samples:64 ~lengths:Workloads.lengths ()
  in
  let p = collect_profile ~input:0 ~events:20_000 () in
  let b = Profile_chunk.encode ~app:"serve-test" ~seq:0 p in
  (match Profile_chunk.ingest a b with
  | Ok (Profile_chunk.Added id) ->
      check_string "id is the content key" (Profile_chunk.id b) id
  | _ -> Alcotest.fail "first delivery must add");
  let before = profile_bytes (Profile_chunk.profile a) in
  for _ = 1 to 3 do
    match Profile_chunk.ingest a b with
    | Ok (Profile_chunk.Duplicate _) -> ()
    | _ -> Alcotest.fail "re-delivery must be a duplicate"
  done;
  check_int "distinct chunks" 1 (Profile_chunk.chunks a);
  check_int "duplicates counted" 3 (Profile_chunk.duplicates a);
  check_bool "accumulator unchanged" true
    (before = profile_bytes (Profile_chunk.profile a))

let test_corrupt_chunk_rejected () =
  let a =
    Profile_chunk.create_accum ~max_samples:64 ~lengths:Workloads.lengths ()
  in
  let p = collect_profile ~input:0 ~events:20_000 () in
  let good = Profile_chunk.encode ~app:"serve-test" ~seq:0 p in
  (match Profile_chunk.ingest a good with
  | Ok (Profile_chunk.Added _) -> ()
  | _ -> Alcotest.fail "good chunk must ingest");
  let before = profile_bytes (Profile_chunk.profile a) in
  let rng = Rng.create 0xC0FFEE in
  let rejected = ref 0 and added = ref 0 in
  for _ = 1 to 400 do
    let bad =
      match Rng.int rng 4 with
      | 0 -> Bytes.sub good 0 (Rng.int rng (Bytes.length good))
      | 1 ->
          let b = Bytes.copy good in
          let i = Rng.int rng (Bytes.length b) in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
          b
      | 2 ->
          let b = Bytes.copy good in
          Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) + 1));
          b
      | _ ->
          let i = Rng.int rng (Bytes.length good) in
          Bytes.cat (Bytes.sub good 0 i)
            (Bytes.sub good (i + 1) (Bytes.length good - i - 1))
    in
    match Profile_chunk.ingest a bad with
    | Error _ -> incr rejected
    | Ok (Profile_chunk.Duplicate _) -> () (* benign-flip survivors *)
    | Ok (Profile_chunk.Added _) -> incr added
    | exception e ->
        Alcotest.failf "ingest raised %s on corrupt chunk"
          (Printexc.to_string e)
  done;
  (* bit flips landing in raw sample payload bytes decode fine (they
     change content, not structure) — only structural damage rejects *)
  check_bool "most corruptions rejected" true (!rejected > 250);
  (* a bit-flip survivor that still decodes is legitimately added;
     otherwise every rejection left the accumulator byte-untouched *)
  if !added = 0 then
    check_bool "rejected deliveries leave the accumulator untouched" true
      (before = profile_bytes (Profile_chunk.profile a))

(* The collector serve runs (arena packed once, compiled verdict fill
   once) against the closure oracle (stream regenerated per pass,
   closure-record baseline): the encoded chunks, and so their ids, must
   be byte-identical at every size down to the empty chunk. *)
let qcheck_collector_matches_closure =
  QCheck.Test.make ~name:"collector: arena chunk bytes = closure oracle"
    ~count:40
    QCheck.(
      quad (int_bound 1) (int_bound 9)
        (oneofl ~print:string_of_int [ 0; 1; 7; 5_000; 20_000 ])
        (pair
           (oneofl ~print:string_of_int [ 8; 64 ])
           (oneofl ~print:string_of_int [ 1; 64; 512 ])))
    (fun (phase, input, events, (kb, max_samples)) ->
      let model () =
        App_model.create ~phase ~cfg:tiny_cfg ~config:tiny_config ~input ()
      in
      let oracle =
        Profile.collect ~max_samples ~lengths:Workloads.lengths ~events
          ~make_source:(fun () -> App_model.source (model ()))
          ~make_predictor:(Whisper_sim.Runner.lbr_predictor kb)
          ()
      in
      let collected =
        Whisper_sim.Runner.profile_arena ~max_samples ~kb
          (Arena.build ~events (model ()))
      in
      let chunk p = Profile_chunk.encode ~app:"serve-test" ~seq:input p in
      Profile_chunk.id (chunk collected) = Profile_chunk.id (chunk oracle)
      && Bytes.equal (chunk collected) (chunk oracle))

(* Single-bit flips over a real chunk's header: some land in the length
   series varint and still decode, to a profile no window merge accepts.
   The acceptance step must quarantine exactly those as malformed, and
   raise on none. *)
let test_poison_chunk_quarantined () =
  let p = collect_profile ~input:0 ~events:20_000 () in
  let good = Profile_chunk.encode ~app:"serve-test" ~seq:0 p in
  let poison = ref 0 in
  for bit = 0 to (64 * 8) - 1 do
    let b = Bytes.copy good in
    let i = bit / 8 in
    Bytes.set b i
      (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
    let foreign_series =
      match Profile_chunk.decode b with
      | Ok { Profile_chunk.profile = q; _ }
        when Profile.lengths q <> Workloads.lengths ->
          Some q
      | Ok _ | Error _ -> None
    in
    match (Whisper_sim.Serve.accept_chunk b, foreign_series) with
    | Ok _, None | Error _, None -> ()
    | Ok _, Some _ ->
        Alcotest.failf "bit %d: foreign length series accepted" bit
    | Error e, Some q ->
        incr poison;
        check_string "typed quarantine" "malformed"
          (Whisper_sim.Serve.quarantine_tag e);
        (* the window merge the chunk would have reached raises *)
        check_bool "poison for the window merge" true
          (match
             Profile_chunk.merge_profiles ~lengths:Workloads.lengths [ q ]
           with
          | _ -> false
          | exception Invalid_argument _ -> true)
    | exception e ->
        Alcotest.failf "bit %d: accept_chunk raised %s" bit
          (Printexc.to_string e)
  done;
  check_bool "some flips change the length series and still decode" true
    (!poison > 0)

(* ------------------------------------------------------------------ *)
(* Rescore codec                                                      *)
(* ------------------------------------------------------------------ *)

let qcheck_rescore_roundtrip =
  QCheck.Test.make ~name:"rescore: plan codec roundtrip" ~count:300
    QCheck.(small_list (pair (int_bound 0xFFFFF) (int_bound 0xFFFF)))
    (fun entries ->
      let plan =
        List.map
          (fun (pc, v) ->
            ( pc,
              {
                History_select.len_idx = v mod 16;
                formula_id = v * 13;
                bias = Brhint.bias_of_code (v mod 4);
                sample_mispred = v land 0xFF;
                baseline_mispred = (v lsr 4) land 0xFF;
                samples = 1 + (v land 63);
              } ))
          entries
      in
      match Rescore.decode (Rescore.encode plan) with
      | Ok plan' ->
          plan = plan' && Rescore.digest plan = Rescore.digest plan'
      | Error _ -> false)

let test_decide_rollout () =
  check_bool "first plan always rolls out" true
    (Whisper_sim.Serve.decide_rollout ~incumbent:None ~candidate:0.0 = `Rollout);
  check_bool "tie keeps the candidate" true
    (Whisper_sim.Serve.decide_rollout ~incumbent:(Some 0.5) ~candidate:0.5
    = `Rollout);
  check_bool "strict loss rolls back" true
    (Whisper_sim.Serve.decide_rollout ~incumbent:(Some 0.5) ~candidate:0.499
    = `Rollback)

(* ------------------------------------------------------------------ *)
(* The serve scenario                                                 *)
(* ------------------------------------------------------------------ *)

let serve_cfg ?(faults = 0.0) ?(generations = 8) ~state_dir () =
  {
    (Whisper_sim.Serve.default ~state_dir) with
    Whisper_sim.Serve.generations;
    chunk_events = 60_000;
    drift_flip = Some (generations / 2);
    faults;
  }

let test_serve_ledger_roundtrip () =
  let cfg = serve_cfg ~state_dir:(Test_dirs.fresh "serve_ledger") () in
  let o = Whisper_sim.Serve.run cfg in
  check_bool "not interrupted" false o.Whisper_sim.Serve.interrupted;
  check_int "one line per step" o.Whisper_sim.Serve.total
    (List.length o.Whisper_sim.Serve.ledger);
  check_int "all completed" o.Whisper_sim.Serve.total
    o.Whisper_sim.Serve.completed;
  (* the ledger is its own codec: parse and re-render is the identity *)
  List.iter
    (fun line ->
      match Whisper_sim.Serve.parse_step line with
      | None -> Alcotest.failf "unparseable ledger line: %s" line
      | Some s -> check_string "render/parse identity" line
            (Whisper_sim.Serve.render_step s))
    o.Whisper_sim.Serve.ledger;
  (* every accepted chunk was probed with a re-delivery and counted *)
  check_int "redelivery probes are counted no-ops"
    o.Whisper_sim.Serve.chunks_ingested o.Whisper_sim.Serve.duplicates

let test_serve_resume_identity () =
  let mk state_dir = serve_cfg ~state_dir () in
  let clean =
    Whisper_sim.Serve.run (mk (Test_dirs.fresh "serve_clean"))
  in
  let dir = Test_dirs.fresh "serve_kill" in
  let k1 =
    Whisper_sim.Serve.run { (mk dir) with Whisper_sim.Serve.max_steps = Some 2 }
  in
  check_bool "first segment interrupted" true k1.Whisper_sim.Serve.interrupted;
  let k2 =
    Whisper_sim.Serve.run
      { (mk dir) with Whisper_sim.Serve.resume = true; max_steps = Some 3 }
  in
  check_bool "second segment interrupted" true k2.Whisper_sim.Serve.interrupted;
  check_int "second segment resumed the journal" 2
    k2.Whisper_sim.Serve.resumed;
  let fin =
    Whisper_sim.Serve.run { (mk dir) with Whisper_sim.Serve.resume = true }
  in
  check_bool "final segment ran to completion" false
    fin.Whisper_sim.Serve.interrupted;
  check_int "five steps replayed from the journal" 5
    fin.Whisper_sim.Serve.resumed;
  check_bool "ledger byte-identical to the uninterrupted run" true
    (clean.Whisper_sim.Serve.ledger = fin.Whisper_sim.Serve.ledger);
  check_bool "summary identical too" true
    (clean.Whisper_sim.Serve.summary = fin.Whisper_sim.Serve.summary)

let test_serve_resume_identity_faulted () =
  let mk state_dir = serve_cfg ~faults:0.4 ~state_dir () in
  let clean = Whisper_sim.Serve.run (mk (Test_dirs.fresh "serve_fclean")) in
  check_bool "chaos rate actually quarantined something" true
    (clean.Whisper_sim.Serve.chunks_quarantined
     + clean.Whisper_sim.Serve.analysis_quarantined
    > 0);
  let dir = Test_dirs.fresh "serve_fkill" in
  ignore
    (Whisper_sim.Serve.run
       { (mk dir) with Whisper_sim.Serve.max_steps = Some 3 });
  let fin =
    Whisper_sim.Serve.run { (mk dir) with Whisper_sim.Serve.resume = true }
  in
  check_bool "faulted ledger byte-identical across kill/resume" true
    (clean.Whisper_sim.Serve.ledger = fin.Whisper_sim.Serve.ledger)

(* The state dir is bound to its scenario: resuming under a different
   config must not replay the old journal, but start over as a fresh
   run would (sweep behaves the same way). *)
let test_serve_resume_config_change_starts_fresh () =
  let dir = Test_dirs.fresh "serve_rekey" in
  let cfg = serve_cfg ~generations:2 ~state_dir:dir () in
  ignore (Whisper_sim.Serve.run cfg);
  let same =
    Whisper_sim.Serve.run { cfg with Whisper_sim.Serve.resume = true }
  in
  check_bool "same config resumes the journal" true
    same.Whisper_sim.Serve.journal_recovered;
  let changed =
    Whisper_sim.Serve.run
      { cfg with Whisper_sim.Serve.resume = true; decay_frac = 0.25 }
  in
  check_bool "changed config does not recover the journal" false
    changed.Whisper_sim.Serve.journal_recovered;
  check_int "nothing replayed" 0 changed.Whisper_sim.Serve.resumed;
  check_int "every step ran" changed.Whisper_sim.Serve.total
    changed.Whisper_sim.Serve.completed;
  let fresh =
    Whisper_sim.Serve.run
      {
        cfg with
        Whisper_sim.Serve.decay_frac = 0.25;
        state_dir = Test_dirs.fresh "serve_rekey_ref";
      }
  in
  check_bool "ledger equals a fresh run's" true
    (fresh.Whisper_sim.Serve.ledger = changed.Whisper_sim.Serve.ledger)

let test_serve_drift_recovery () =
  let cfg =
    serve_cfg ~generations:10
      ~state_dir:(Test_dirs.fresh "serve_drift")
      ()
  in
  let o = Whisper_sim.Serve.run cfg in
  (match Whisper_sim.Serve.check_recovery cfg o with
  | Ok () -> ()
  | Error reason -> Alcotest.failf "recovery assertion failed: %s" reason);
  check_bool "the flip was detected as drift" true
    (o.Whisper_sim.Serve.drift_detected > 0);
  check_bool "drift triggered re-analysis" true
    (o.Whisper_sim.Serve.analyses > 1);
  check_bool "re-analysis rolled a new generation out" true
    (o.Whisper_sim.Serve.rollouts > 1)

let test_serve_stationary_no_flip () =
  let cfg =
    {
      (serve_cfg ~generations:4 ~state_dir:(Test_dirs.fresh "serve_flat") ())
      with
      Whisper_sim.Serve.drift_flip = None;
    }
  in
  let o = Whisper_sim.Serve.run cfg in
  check_bool "stationary run completes" false o.Whisper_sim.Serve.interrupted;
  check_bool "check_recovery refuses a flipless scenario" true
    (match Whisper_sim.Serve.check_recovery cfg o with
    | Error _ -> true
    | Ok () -> false)

let test_serve_rejects_bad_config () =
  let base = serve_cfg ~state_dir:(Test_dirs.fresh "serve_bad") () in
  List.iter
    (fun (field, cfg) ->
      match Whisper_sim.Serve.run cfg with
      | _ -> Alcotest.failf "%s: out-of-range value accepted" field
      | exception Invalid_argument msg ->
          check_bool (field ^ " is named") true
            (String.starts_with ~prefix:("Serve.run: " ^ field ^ " ") msg))
    [
      ("generations", { base with Whisper_sim.Serve.generations = -1 });
      ("chunk_events", { base with Whisper_sim.Serve.chunk_events = -5 });
      ("max_samples", { base with Whisper_sim.Serve.max_samples = -1 });
      ("window", { base with Whisper_sim.Serve.window = 0 });
      ("kb", { base with Whisper_sim.Serve.kb = 96 });
    ]

let test_cli_rejects_bad_flags () =
  Cli_exe.with_cli ~suite:"test_serve" @@ fun exe ->
  let serve args =
    Sys.command
      (Filename.quote_command exe
         ("serve" :: "--state-dir" :: Test_dirs.fresh "serve_cli" :: args)
         ~stdout:Filename.null ~stderr:Filename.null)
  in
  check_int "an empty scenario runs" 0 (serve [ "--generations=0" ]);
  List.iter
    (fun flag -> check_int (flag ^ " is a usage error") 124 (serve [ flag ]))
    [
      "--chunk-events=-5";
      "--max-samples=-1";
      "--generations=-1";
      "--window=0";
      "--baseline-kb=7";
      "--baseline-kb=96";
    ]

let () =
  Alcotest.run "whisper_serve"
    [
      ( "mergeset",
        [
          QCheck_alcotest.to_alcotest qcheck_mergeset_orders;
          Alcotest.test_case "basics" `Quick test_mergeset_basics;
        ] );
      ( "chunks",
        [
          Alcotest.test_case "roundtrip" `Quick test_chunk_roundtrip;
          Alcotest.test_case "permutation identity" `Slow
            test_chunk_permutation_identity;
          QCheck_alcotest.to_alcotest qcheck_accum_permutation;
          Alcotest.test_case "duplicate is a counted no-op" `Quick
            test_duplicate_is_counted_noop;
          Alcotest.test_case "corrupt chunks are typed rejections" `Quick
            test_corrupt_chunk_rejected;
          QCheck_alcotest.to_alcotest qcheck_collector_matches_closure;
          Alcotest.test_case "length-series flips quarantine" `Quick
            test_poison_chunk_quarantined;
        ] );
      ( "rescore",
        [
          QCheck_alcotest.to_alcotest qcheck_rescore_roundtrip;
          Alcotest.test_case "rollout rule" `Quick test_decide_rollout;
        ] );
      ( "serve",
        [
          Alcotest.test_case "ledger roundtrip + idempotent redelivery" `Slow
            test_serve_ledger_roundtrip;
          Alcotest.test_case "kill/resume ledger identity" `Slow
            test_serve_resume_identity;
          Alcotest.test_case "faulted kill/resume ledger identity" `Slow
            test_serve_resume_identity_faulted;
          Alcotest.test_case "resume after a config change starts fresh"
            `Slow test_serve_resume_config_change_starts_fresh;
          Alcotest.test_case "drift detection recovers coverage" `Slow
            test_serve_drift_recovery;
          Alcotest.test_case "stationary scenario" `Slow
            test_serve_stationary_no_flip;
          Alcotest.test_case "out-of-range config is a named error" `Quick
            test_serve_rejects_bad_config;
          Alcotest.test_case "CLI rejects out-of-range flags" `Quick
            test_cli_rejects_bad_flags;
        ] );
    ]
