(* serve-drift: the continuous-profiling daemon.  Each op is one
   Serve.run of the default scenario in a fresh state directory.  Serve.run
   is one call, so the traced cycles run a replica instead: it drives the
   same chunks through the public calls Serve makes, following the ledger
   of the Serve.run op before it, and times each call. *)

open Whisper_util
open Whisper_trace
open Whisper_core
module Serve = Whisper_sim.Serve
module Runner = Whisper_sim.Runner

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let in_fresh_dir dir f =
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let write_atomic path data =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_bytes oc data);
  Sys.rename tmp path

let field line name =
  let prefix = name ^ "=" in
  List.find_map
    (fun tok ->
      if String.starts_with ~prefix tok then
        Some
          (String.sub tok (String.length prefix)
             (String.length tok - String.length prefix))
      else None)
    (String.split_on_char ' ' line)

let scenario_events (cfg : Serve.config) =
  cfg.chunk_events * cfg.generations * List.length cfg.apps

let serve_op ~config ~check_recovery ~dir ~last =
  let run () =
    in_fresh_dir dir @@ fun dir ->
    let cfg = config ~state_dir:dir in
    let outcome = Serve.run cfg in
    last := Some outcome;
    if outcome.interrupted || outcome.completed <> outcome.total then
      failwith "serve: scenario did not complete";
    (if check_recovery then
       match Serve.check_recovery cfg outcome with
       | Ok () -> ()
       | Error e -> failwith ("serve: " ^ e));
    [ ("ledger", Check.hex (String.concat "\n" outcome.ledger)) ]
  in
  let events = scenario_events (config ~state_dir:dir) in
  { Op.label = "serve"; events; run }

type app_state = {
  name : string;
  wcfg : Workloads.config;
  cfg_static : Cfg.t;
  accum : Profile_chunk.accum;
  mutable win : Profile.t list;  (* newest first *)
  mutable dep : Rescore.plan option;
}

let fail_step line what = failwith (Printf.sprintf "replica: %s at %S" what line)

(* One (generation, app) step, following the ledger [line] Serve wrote
   for it. *)
let replica_step (cfg : Serve.config) ~rnd ~journal ~dir st ~gen line =
  let config = Config.default in
  let lengths = Workloads.lengths in
  let phase = match cfg.drift_flip with Some f when gen >= f -> 1 | _ -> 0 in
  let profile =
    Span.span ~events:cfg.chunk_events "serve.collect" (fun () ->
        Profile.collect ~max_samples:cfg.max_samples ~lengths
          ~events:cfg.chunk_events
          ~make_source:(fun () ->
            App_model.source
              (App_model.create ~phase ~cfg:st.cfg_static ~config:st.wcfg
                 ~input:(gen + 2) ()))
          ~make_predictor:(Runner.lbr_predictor cfg.kb)
          ())
  in
  let bytes, id, profile =
    Span.span "serve.ingest" (fun () ->
        let bytes = Profile_chunk.encode ~app:st.name ~seq:gen profile in
        let id = Profile_chunk.id bytes in
        match Profile_chunk.decode bytes with
        | Error _ -> fail_step line "chunk does not decode"
        | Ok c ->
            let p = c.Profile_chunk.profile in
            ignore (Profile_chunk.ingest_profile st.accum ~id p);
            if cfg.redeliver then
              ignore (Profile_chunk.ingest_profile st.accum ~id p);
            (bytes, id, p))
  in
  if field line "chunk" <> Some id then fail_step line "chunk id differs";
  Span.span "serve.store" (fun () ->
      write_atomic (Filename.concat dir ("chunk-" ^ id ^ ".bin")) bytes);
  st.win <- List.filteri (fun i _ -> i < cfg.window) (profile :: st.win);
  let wp =
    Span.span "serve.window_merge" (fun () ->
        Profile_chunk.merge_profiles ~max_samples:cfg.max_samples ~lengths
          (List.rev st.win))
  in
  let score plan =
    Span.span "serve.rescore" (fun () ->
        (Rescore.score ~config ~rnd ~profile:wp plan).Rescore.coverage)
  in
  (match (field line "cov", st.dep) with
  | Some "none", None -> ()
  | Some cov, Some plan ->
      if Printf.sprintf "%.6f" (score plan) <> cov then
        fail_step line "coverage differs"
  | _ -> fail_step line "unexpected cov field");
  (match field line "action" with
  | Some "none" -> ()
  | Some (("rollout" | "rollback") as action) ->
      let cand =
        Span.span "serve.analyze" (fun () ->
            (Analyze.run ~config ~jobs:cfg.jobs wp).Analyze.decisions)
      in
      ignore (score cand);
      if action = "rollout" then begin
        if field line "plan" <> Some (Rescore.digest cand) then
          fail_step line "rolled-out plan digest differs";
        Span.span "serve.store" (fun () ->
            write_atomic
              (Filename.concat dir (Printf.sprintf "plan-%s-g%04d.bin" st.name gen))
              (Rescore.encode cand));
        st.dep <- Some cand
      end
  | _ -> fail_step line "unexpected action");
  Span.span "serve.journal_append" (fun () ->
      Journal.append journal
        {
          Journal.key = Printf.sprintf "g%04d/%s" gen st.name;
          status = Journal.Done;
          detail = line;
        })

let replica_op ~config ~dir ~last =
  let run () =
    let outcome =
      match !last with
      | Some o -> o
      | None -> failwith "replica: no ledger from the serve op"
    in
    in_fresh_dir dir @@ fun dir ->
    Unix.mkdir dir 0o755;
    let cfg = config ~state_dir:dir in
    let manifest = Serve.plan cfg in
    Manifest.save manifest ~path:(Filename.concat dir "manifest.bin");
    let journal =
      Journal.create
        ~path:(Filename.concat dir "journal.bin")
        ~manifest_id:(Manifest.id manifest)
    in
    let rnd = Randomized.create Config.default in
    let states =
      List.map
        (fun name ->
          let wcfg = Op.app name in
          {
            name;
            wcfg;
            cfg_static = Workloads.build_cfg wcfg;
            accum =
              Profile_chunk.create_accum ~max_samples:cfg.max_samples
                ~lengths:Workloads.lengths ();
            win = [];
            dep = None;
          })
        cfg.apps
    in
    let ledger = Array.of_list outcome.Serve.ledger in
    let n_apps = List.length states in
    if Array.length ledger <> cfg.generations * n_apps then
      failwith "replica: ledger length differs from the scenario";
    Fun.protect ~finally:(fun () -> Journal.close journal) (fun () ->
        for gen = 0 to cfg.generations - 1 do
          List.iteri
            (fun i st ->
              replica_step cfg ~rnd ~journal ~dir st ~gen
                ledger.((gen * n_apps) + i))
            states
        done);
    Span.count "serve.analyses" (float_of_int outcome.analyses);
    Span.count "serve.rollouts" (float_of_int outcome.rollouts);
    Span.count "serve.drift_detected" (float_of_int outcome.drift_detected);
    []
  in
  let events = scenario_events (config ~state_dir:dir) in
  { Op.label = "serve-replica"; events; run }

(* The serve op and its replica, sharing the latest ledger through
   [last]. *)
let ops ~state_root ~config ~last ~check_recovery =
  ( serve_op ~config ~check_recovery
      ~dir:(Filename.concat state_root "serve")
      ~last,
    replica_op ~config ~dir:(Filename.concat state_root "replica") ~last )

let workload ~state_root ~config =
  let serve, replica =
    ops ~state_root ~config ~last:(ref None) ~check_recovery:true
  in
  {
    Op.cycle = 1;
    warmup = [ 0 ];
    prepare = (fun () ~slot:_ ~traced -> if traced then replica else serve);
  }
