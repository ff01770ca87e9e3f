(* replay-hot: steady-state simulation.  Set-up builds, per app, both
   arenas and the train profile in one ctx; each op replays one app under
   six techniques — Runner.run's arena path without its memo and cache. *)

open Whisper_pipeline
module Runner = Whisper_sim.Runner

let techniques =
  Runner.
    [
      Baseline;
      Mtage_sc;
      Ideal;
      Rombf 8;
      Branchnet (Whisper_branchnet.Branchnet.Budget (32 * 1024));
      Whisper Whisper_core.Config.default;
    ]

let pct part whole = 100.0 *. part /. whole

(* Simulated statistics: exact, so they must not move under any
   host-speed change. *)
let count_sim results =
  let tage = List.assoc "tage-scl" results
  and whisper = List.assoc "whisper" results in
  Span.count "sim.tage-scl.mpki" (Machine.mpki tage);
  Span.count "sim.whisper.mpki" (Machine.mpki whisper);
  Span.count "sim.tage-scl.misp_stall_pct" (pct tage.misp_stall tage.cycles);
  Span.count "sim.tage-scl.fe_stall_pct" (pct tage.fe_stall tage.cycles);
  Span.count "sim.tage-scl.exposed_miss_ratio"
    (float_of_int tage.exposed_misses /. float_of_int (max 1 tage.l1i_misses));
  Span.count "sim.whisper_speedup_pct"
    (Machine.speedup_pct ~baseline:tage ~improved:whisper)

let op ctx ~events ~seed name =
  let app = Op.app name in
  let run () =
    let arena = Runner.arena ctx app ~input:((2 * seed) + 1) in
    let results =
      List.map
        (fun t ->
          let tname = Runner.technique_name t in
          let exec =
            Span.span ("make_exec." ^ tname) (fun () ->
                Runner.make_exec_arena ctx app t ~train_inputs:[ 2 * seed ]
                  ~kb:(Runner.baseline_kb ctx) ~arena)
          in
          let r =
            Span.span ~events ("machine." ^ tname) (fun () ->
                Machine.run_arena_exec ~events ~arena ~exec ())
          in
          (tname, r))
        techniques
    in
    count_sim results;
    List.map
      (fun (tname, r) -> (name ^ "/" ^ tname, Check.result_digest r))
      results
  in
  { Op.label = name; events = events * List.length techniques; run }

let workload ~events ~seed =
  let apps = Array.of_list Op.apps in
  {
    Op.cycle = Array.length apps;
    warmup = [ 0 ];
    prepare =
      (fun () ->
        let ctx = Runner.create_ctx ~events ~jobs:1 () in
        Array.iter
          (fun n ->
            let app = Op.app n in
            ignore (Runner.arena ctx app ~input:(2 * seed));
            ignore (Runner.arena ctx app ~input:((2 * seed) + 1));
            ignore (Runner.profile ~inputs:[ 2 * seed ] ctx app))
          apps;
        fun ~slot ~traced:_ -> op ctx ~events ~seed apps.(slot));
  }
