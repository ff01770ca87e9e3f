(* train-cold: the offline pipeline from nothing, one app per op.  The
   chain is Runner.whisper_runtime's, written as public calls. *)

open Whisper_trace
open Whisper_core
module Runner = Whisper_sim.Runner

let op ~events ~seed name =
  let app = Op.app name in
  let train = 2 * seed in
  let run () =
    let ctx = Runner.create_ctx ~events ~jobs:1 () in
    let arena =
      Span.span ~events "arena.build" (fun () ->
          Runner.arena ctx app ~input:train)
    in
    let profile =
      Span.span "profile.collect" (fun () ->
          Runner.profile ~inputs:[ train ] ctx app)
    in
    let candidates = Array.length (Profile.candidates profile) in
    Span.count "profile.candidates" (float_of_int candidates);
    let analysis =
      Span.span "analyze.run" (fun () ->
          Runner.whisper_analysis ~train_inputs:[ train ] ctx app)
    in
    Span.count "analyze.hints" (float_of_int (Analyze.hint_count analysis));
    let plan =
      Span.span "inject.plan" (fun () ->
          let cfg = Runner.cfg_of ctx app in
          Inject.plan Config.default cfg ~source:(Arena.source arena)
            ~hints:(Analyze.to_inject_hints analysis cfg))
    in
    let runtime =
      Span.span "runtime.create" (fun () ->
          let baseline =
            Whisper_bpu.Tage_scl.predictor
              (Whisper_bpu.Sizes.for_budget ~kb:(Runner.baseline_kb ctx))
          in
          Runtime.create Config.default ~baseline ~plan)
    in
    ignore (Sys.opaque_identity runtime);
    [
      (name ^ "/decisions", Rescore.digest analysis.Analyze.decisions);
      (name ^ "/plan", Check.hex (Bytes.to_string (Plan_io.to_bytes plan)));
    ]
  in
  { Op.label = name; events; run }

let workload ~events ~seed =
  let apps = Array.of_list Op.apps in
  {
    Op.cycle = Array.length apps;
    warmup = List.init (Array.length apps) Fun.id;
    prepare =
      (fun () ->
        Array.iter (fun n -> ignore (Workloads.build_cfg (Op.app n))) apps;
        fun ~slot ~traced:_ -> op ~events ~seed apps.(slot));
  }
