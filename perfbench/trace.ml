(* The benchmark's traced pass: a workload rebuilt in-process, outside-in.

     trace.exe run --envelope FILE [--gen COUNT --gen-seed SEED]
                   [--cache-dir D] [--journal J]
       Runs the workload's corpus the way [Runner.run]'s sequential loop
       does (codegen, cache key, cache read, journal, the pipeline phases,
       serialisation, cache write), calling each layer's public function
       directly and timing the call.  The calls do not nest, so each
       call's duration is that layer's self time.  Counters come from the
       metrics registry the layers already feed, plus sizes read off the
       values the calls return.  The rebuilt report envelope must equal
       FILE, the untraced binary's [--report-out], byte for byte.  The
       flags are the ones the binary ran with.

     trace.exe selftest APP...
       For each named paper-corpus app, the composition below must
       serialize exactly what [Pipeline.analyze] does.

   Demand-driven call-graph resolution happens inside the phases that
   first touch a method (mostly slicing), so its cost is charged there:
   [cfg.build_s] only covers building the method index. *)

open Bench_common
module Prog = Extr_ir.Prog
module Apk = Extr_apk.Apk
module Callgraph = Extr_cfg.Callgraph
module Callbacks = Extr_semantics.Callbacks
module Slicer = Extr_slicing.Slicer
module Pipeline = Extr_extractocol.Pipeline
module Interp = Extr_extractocol.Interp
module Pairing = Extr_extractocol.Pairing
module Report = Extr_extractocol.Report
module Resilience = Extr_resilience.Resilience
module Budget = Resilience.Budget
module Degrade = Resilience.Degrade
module Journal = Extr_resilience.Journal
module Store = Extr_store.Store
module Metrics = Extr_telemetry.Metrics
module Span = Extr_telemetry.Span

(* Self seconds per timed call site, and work counts. *)
let self : (string, float) Hashtbl.t = Hashtbl.create 16
let counts : (string, int) Hashtbl.t = Hashtbl.create 16
let count name n =
  Hashtbl.replace counts name (n + Option.value (Hashtbl.find_opt counts name) ~default:0)

let get_count name = Option.value (Hashtbl.find_opt counts name) ~default:0

let time name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Hashtbl.replace self name (dt +. Option.value (Hashtbl.find_opt self name) ~default:0.0);
  r

(* Pipeline.analyze, one public call per phase, in its order.  The
   workloads run the runner's default options: no scope filter, the
   demand-driven call graph. *)
let analyze (options : Pipeline.options) (apk : Apk.t) : Report.t =
  let app = apk.Apk.manifest.Apk.mf_label in
  let clock = Span.clock Span.default in
  let start = clock () in
  let budget = Budget.create ~clock ~limits:options.Pipeline.op_limits () in
  Degrade.reset Degrade.default;
  let apk, prog =
    time "ir.inject" (fun () ->
        let program = Pipeline.with_library_classes apk.Apk.program in
        ({ apk with Apk.program }, Prog.of_program program))
  in
  let cg =
    time "cfg.build" (fun () ->
        Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
          ~callback_triggers:Callbacks.trigger_names prog)
  in
  let slices =
    time "slicing.run" (fun () ->
        Slicer.run
          ~options:
            {
              Slicer.opt_async_heuristic = options.Pipeline.op_async_heuristic;
              opt_async_iterations = options.Pipeline.op_async_iterations;
              opt_augmentation = options.Pipeline.op_augmentation;
              opt_scope = options.Pipeline.op_scope;
              opt_budget = Some budget;
            }
          prog cg)
  in
  let txs =
    time "interp.run" (fun () ->
        Interp.run
          (Interp.create
             ~options:
               {
                 Interp.default_options with
                 Interp.io_event_heap = options.Pipeline.op_async_heuristic;
                 io_context_sensitive = options.Pipeline.op_context_sensitive;
                 io_restrict_to_slices = options.Pipeline.op_restrict_to_slices;
                 io_intents = options.Pipeline.op_intents;
                 io_max_depth = options.Pipeline.op_limits.Budget.bl_max_depth;
               }
             ~budget ~slices prog cg apk))
  in
  let pairs = time "pairing.run" (fun () -> Pairing.pair_disjoint prog cg slices) in
  if Budget.depth_clipped budget then
    Degrade.record ~phase:"interpretation"
      ~reason:(Budget.exhaustion_reason Budget.Depth)
      (Printf.sprintf "calls beyond depth %d were widened to unknown"
         options.Pipeline.op_limits.Budget.bl_max_depth);
  let elapsed = clock () -. start in
  let report =
    time "report.build" (fun () ->
        Report.of_transactions ~degradations:(Degrade.items Degrade.default) ~app
          ~dp_count:(List.length slices.Slicer.r_dps)
          ~slice_stmts:slices.Slicer.r_stats.Slicer.st_slice_stmts
          ~total_stmts:slices.Slicer.r_stats.Slicer.st_total_stmts ~elapsed_s:elapsed
          txs)
  in
  count "corpus.app_stmts" (Prog.app_stmt_count prog);
  count "cfg.methods_resolved" (Callgraph.resolved_count cg);
  count "cfg.app_methods" (List.length (Prog.app_methods prog));
  count "slicing.dps" (List.length slices.Slicer.r_dps);
  count "slicing.slice_stmts" slices.Slicer.r_stats.Slicer.st_slice_stmts;
  count "interp.raw_txs" (List.length txs);
  count "pairing.pairs" (List.length pairs);
  count "report.txs" (List.length report.Report.rp_transactions);
  report

let serialize report = Json.to_string (Report.to_json ~deterministic:true report)

(* Runner.run_app's sequence for one corpus entry, first rung of the
   retry ladder only: the workloads never degrade, and an app that does
   stops the pass. *)
let run_app ~jot ~cache ~config ~pipeline id (e : Corpus.entry) : Runner.app_result =
  let apk = time "corpus.codegen" (fun () -> Lazy.force e.Corpus.c_apk) in
  let key = time "store.key" (fun () -> Store.key ~config apk) in
  let key_s = Store.key_to_string key in
  let result ~cached ~attempts status txs data =
    {
      Runner.ar_app = id;
      ar_status = status;
      ar_cached = cached;
      ar_resumed = false;
      ar_attempts = attempts;
      ar_txs = txs;
      ar_degradations = [];
      ar_elapsed_s = 0.0;
      ar_crash = None;
      ar_report_json = Some data;
    }
  in
  let finished ~cached ~attempts status txs =
    jot
      (Journal.Finished
         {
           ev_app = id;
           ev_key = key_s;
           ev_status = Runner.status_name status;
           ev_cached = cached;
           ev_attempts = attempts;
           ev_txs = txs;
         })
  in
  let hit =
    Option.bind cache (fun c ->
        time "store.find" (fun () ->
            Option.bind (Store.find c key) (fun data ->
                Option.map (fun i -> (data, i)) (Runner.inspect_report_json data))))
  in
  match hit with
  | Some (data, (status, txs, _)) ->
      count "store.hits" 1;
      finished ~cached:true ~attempts:0 status txs;
      result ~cached:true ~attempts:0 status txs data
  | None ->
      if cache <> None then count "store.misses" 1;
      jot (Journal.Started { ev_app = id; ev_key = key_s; ev_attempt = 1 });
      let report = analyze pipeline apk in
      if report.Report.rp_degradations <> [] then
        die "%s degraded; the traced pass follows only the first retry rung" id;
      let data = time "report.json" (fun () -> serialize report) in
      count "report.json_bytes" (String.length data);
      let txs = List.length report.Report.rp_transactions in
      finished ~cached:false ~attempts:1 Runner.Ok txs;
      Option.iter
        (fun c ->
          time "store.store" (fun () -> Store.store c key data);
          count "store.bytes_written" (String.length (Store.seal data)))
        cache;
      result ~cached:false ~attempts:1 Runner.Ok txs data

(* The layer timers, as reported: every timed call site above. *)
let timed =
  [
    "runner.setup"; "corpus.codegen"; "store.key"; "store.find"; "store.store";
    "journal.append"; "ir.inject"; "cfg.build"; "slicing.run"; "interp.run";
    "pairing.run"; "report.build"; "report.json";
  ]

(* A counter the layers export through the metrics registry, summed over
   its labels. *)
let exported name =
  List.fold_left
    (fun acc (s : Metrics.sample) ->
      if s.Metrics.sa_name = name then acc + s.Metrics.sa_count else acc)
    0 (Metrics.snapshot Metrics.default)

(* Linear-interpolated percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let r = q /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    let f = r -. float_of_int i in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. (f *. (sorted.(i + 1) -. sorted.(i)))

let run flags =
  let gen = gen_flags flags in
  let envelope = read_file (need flags "envelope") in
  let cache_dir = flag flags "cache-dir" and journal = flag flags "journal" in
  Metrics.set_enabled Metrics.default true;
  let t0 = Unix.gettimeofday () in
  let ids, options, cache, journal =
    time "runner.setup" (fun () ->
        let entries = corpus gen in
        let options = runner_options ?cache_dir ?journal gen in
        let cache = Option.map (fun dir -> Store.open_ ~dir ()) cache_dir in
        let journal =
          Option.map
            (fun path ->
              Journal.create ~path ~config:(Runner.journal_fingerprint options) ())
            journal
        in
        (Runner.identify entries, options, cache, journal))
  in
  let config = Runner.config_fingerprint options in
  let jot ev =
    Option.iter
      (fun j ->
        time "journal.append" (fun () -> Journal.append j ev);
        count "journal.appends" 1)
      journal
  in
  let per_app = ref [] in
  let results =
    List.map
      (fun (id, e) ->
        let a0 = Unix.gettimeofday () in
        let r = run_app ~jot ~cache ~config ~pipeline:options.Runner.ro_pipeline id e in
        per_app := (Unix.gettimeofday () -. a0) :: !per_app;
        r)
      ids
  in
  let wall = Unix.gettimeofday () -. t0 in
  let rebuilt =
    Runner.report_json
      ~config:(Runner.journal_fingerprint options)
      { Runner.rn_results = results; rn_interrupted = false; rn_quarantined = [];
        rn_worker_spans = [] }
  in
  if rebuilt <> envelope then prerr_endline "traced envelope differs from the binary's";
  let sorted = Array.of_list (List.sort compare !per_app) in
  let n = Array.length sorted in
  (* The highest percentile with at least ten apps beyond it. *)
  let tail_pct = if n > 20 then 100.0 *. float_of_int (n - 10) /. float_of_int n else 50.0 in
  let self_s name = Option.value (Hashtbl.find_opt self name) ~default:0.0 in
  let covered = List.fold_left (fun acc k -> acc +. self_s k) 0.0 timed in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let c = get_count in
  let fi = float_of_int in
  print_metrics
    (List.map (fun k -> (k ^ "_s", self_s k)) timed
    @ [
        ("corpus.app_stmts", fi (c "corpus.app_stmts"));
        ("store.hit_ratio", ratio (c "store.hits") (c "store.hits" + c "store.misses"));
        ("store.bytes_written", fi (c "store.bytes_written"));
        ("journal.appends", fi (c "journal.appends"));
        ("cfg.methods_resolved", fi (c "cfg.methods_resolved"));
        ( "cfg.skipped_ratio",
          ratio (c "cfg.app_methods" - c "cfg.methods_resolved") (c "cfg.app_methods") );
        ("slicing.dps", fi (c "slicing.dps"));
        ("slicing.slice_stmts", fi (c "slicing.slice_stmts"));
        ("slicing.augmented_stmts", fi (exported "slicer.augmented_stmts"));
      ]
    @ List.map
        (fun k -> (k, fi (exported k)))
        [
          "taint.backward.worklist_steps"; "taint.backward.facts";
          "taint.forward.worklist_steps"; "taint.forward.facts";
          "interp.statements"; "interp.callbacks_fired";
        ]
    @ [
        ("interp.raw_txs", fi (c "interp.raw_txs"));
        ("pairing.pairs", fi (c "pairing.pairs"));
        ("report.txs", fi (c "report.txs"));
        ("report.dedup_ratio", ratio (c "report.txs") (c "interp.raw_txs"));
        ("report.json_bytes", fi (c "report.json_bytes"));
        ("app.samples", fi n);
        ("app.tail_pct", tail_pct);
        ("app.p50_ms", 1e3 *. percentile sorted 50.0);
        ("app.tail_ms", 1e3 *. percentile sorted tail_pct);
        ("trace.coverage", if wall > 0.0 then covered /. wall else 0.0);
        ("trace.wall_s", wall);
        ("envelope_identical", if rebuilt = envelope then 1.0 else 0.0);
      ])

let selftest names =
  let all = Corpus.case_studies () @ Corpus.table1 () in
  let bad =
    List.filter
      (fun name ->
        match Corpus.find all name with
        | None ->
            Printf.printf "selftest %s: no such app\n" name;
            true
        | Some e ->
            let apk = Lazy.force e.Corpus.c_apk in
            let options = Pipeline.default_options in
            let expected = serialize (Pipeline.analyze ~options apk).Pipeline.an_report in
            let got = serialize (analyze options apk) in
            Printf.printf "selftest %s: %s\n" name
              (if got = expected then "composition matches Pipeline.analyze"
               else "composition DIFFERS from Pipeline.analyze");
            got <> expected)
      names
  in
  exit (if bad = [] then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run (parse_flags rest)
  | _ :: "selftest" :: (_ :: _ as names) -> selftest names
  | _ -> die "usage: trace.exe (run --envelope FILE ... | selftest APP...)"
