(* The demand-driven call graph and the index-backed slicer lookups
   against brute-force references built from whole-program scans: caller
   lists must equal the inversion of every method's call sites (contents
   AND order, since caller order feeds the taint worklists), and
   demarcation points must equal a scan of every statement.  Also the
   regression test for the work-stack [reachable_from] (deep synthetic
   call chains used to blow the OCaml stack) and a check that laziness
   actually skips methods. *)

module Ir = Extr_ir.Types
module B = Extr_ir.Builder
module Prog = Extr_ir.Prog
module Callgraph = Extr_cfg.Callgraph
module Api = Extr_semantics.Api
module Callbacks = Extr_semantics.Callbacks
module Demarcation = Extr_semantics.Demarcation
module Slicer = Extr_slicing.Slicer
module Apk = Extr_apk.Apk
module Corpus = Extr_corpus.Corpus
module Pipeline = Extr_extractocol.Pipeline

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let show_mid (m : Ir.method_id) = m.Ir.id_cls ^ "." ^ m.Ir.id_name

let show_sid (s : Ir.stmt_id) =
  Printf.sprintf "%s:%d" (show_mid s.Ir.sid_meth) s.Ir.sid_idx

let graph_of prog =
  Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
    ~callback_triggers:Callbacks.trigger_names prog

let prog_of (apk : Apk.t) =
  Prog.of_program (Pipeline.with_library_classes apk.Apk.program)

(* Reference caller map: walk every application method in scan order and
   cons each call site onto each of its targets, so every list ends up in
   reverse scan order with one entry per target occurrence. *)
let reference_callers prog =
  let cg = graph_of prog in
  List.fold_left
    (fun acc (m : Ir.meth) ->
      List.fold_left
        (fun acc (cs : Callgraph.callsite) ->
          List.fold_left
            (fun acc c ->
              Ir.Method_map.update c
                (fun l -> Some (cs.Callgraph.cs_stmt :: Option.value l ~default:[]))
                acc)
            acc cs.Callgraph.cs_callees)
        acc
        (Callgraph.callsites cg (Ir.method_id_of_meth m)))
    Ir.Method_map.empty (Prog.app_methods prog)

(* Reference demarcation points: every statement of every in-scope
   application method, in scan order. *)
let reference_dps ?scope prog =
  let in_scope (m : Ir.meth) =
    match scope with
    | None -> true
    | Some prefix -> String.starts_with ~prefix m.Ir.m_cls
  in
  List.concat_map
    (fun (m : Ir.meth) ->
      if not (in_scope m) then []
      else
        let mid = Ir.method_id_of_meth m in
        List.concat
          (List.mapi
             (fun idx stmt ->
               match Ir.stmt_invoke stmt with
               | Some invoke when Demarcation.find invoke <> None ->
                   [ { Ir.sid_meth = mid; sid_idx = idx } ]
               | Some _ | None -> [])
             (Array.to_list m.Ir.m_body)))
    (Prog.app_methods prog)

let check_callers name (apk : Apk.t) =
  let prog = prog_of apk in
  let cg = graph_of prog in
  let reference = reference_callers prog in
  List.iter
    (fun (m : Ir.meth) ->
      let mid = Ir.method_id_of_meth m in
      check
        Alcotest.(list string)
        (Printf.sprintf "%s: callers of %s" name (show_mid mid))
        (List.map show_sid
           (Option.value (Ir.Method_map.find_opt mid reference) ~default:[]))
        (List.map show_sid (Callgraph.callers cg mid)))
    (Prog.app_methods prog)

let check_dps name ?scope (apk : Apk.t) =
  let prog = prog_of apk in
  let index = Callgraph.index (graph_of prog) in
  check
    Alcotest.(list string)
    (name ^ ": demarcation points")
    (List.map show_sid (reference_dps ?scope prog))
    (List.map
       (fun (dp : Slicer.dp_site) -> show_sid dp.Slicer.dp_stmt)
       (Slicer.find_demarcation_points ?scope index))

let generated () = Corpus.generated ~seed:42 ~count:50

let each_app f entries =
  List.iter
    (fun (e : Corpus.entry) ->
      f e.Corpus.c_app.Extr_corpus.Spec.a_name (Lazy.force e.Corpus.c_apk))
    entries

(* (a) 50 generated apps — the --gen stress corpus exercises deep call
   chains, shared helpers, listeners and unreachable filler methods. *)
let test_generated_callers () = each_app check_callers (generated ())

(* (b) The hand-authored case studies carry the implicit-edge patterns
   (AsyncTask, Volley listeners, Timer, SQLite) the generator does not. *)
let test_case_study_callers () = each_app check_callers (Corpus.case_studies ())

(* (c) Index-driven demarcation discovery finds exactly the scan's sites,
   in the scan's order — with and without a class-prefix scope. *)
let test_demarcation_points () =
  each_app (fun name apk -> check_dps name apk) (generated ());
  each_app
    (fun name apk ->
      check_dps name apk;
      check_dps name ~scope:"com.kayak" apk)
    (Corpus.case_studies ())

(* (d) Work-stack regression: a 100k-deep synthetic call chain must not
   blow the stack in [reachable_from] (it did, as a spurious [crashed]
   quarantine, before the explicit work stack). *)
let test_deep_chain_reachability () =
  let depth = 100_000 in
  let meth i =
    B.mk_meth ~cls:"Chain"
      ~name:(Printf.sprintf "m%d" i)
      ~params:[] ~ret:Ir.Void
      (fun b ->
        if i + 1 < depth then
          B.call b (B.static_call "Chain" (Printf.sprintf "m%d" (i + 1)) []))
  in
  let prog =
    Prog.of_program
      {
        Ir.p_classes =
          [ B.mk_cls ~super:Api.java_object "Chain" (List.init depth meth) ];
        p_entries = [];
      }
  in
  let reach =
    Callgraph.reachable_from (graph_of prog)
      [ { Ir.id_cls = "Chain"; id_name = "m0" } ]
  in
  check Alcotest.int "whole chain reachable" depth (Ir.Method_set.cardinal reach)

(* (e) Laziness is real: after a full pipeline run, some app methods must
   never have been resolved (generated apps always carry unreachable
   filler helpers). *)
let test_demand_skips_methods () =
  let skipped_total = ref 0 in
  List.iter
    (fun (e : Corpus.entry) ->
      let an = Pipeline.analyze (Lazy.force e.Corpus.c_apk) in
      let total = List.length (Prog.app_methods an.Pipeline.an_prog) in
      let resolved = Callgraph.resolved_count an.Pipeline.an_cg in
      check Alcotest.bool "never resolves more than exist" true
        (resolved <= total);
      skipped_total := !skipped_total + (total - resolved))
    (Corpus.generated ~seed:42 ~count:20);
  (* Not every generated app carries unreachable helpers, but a 20-app
     batch always does somewhere — zero would mean the call graph
     silently resolves the whole program. *)
  check Alcotest.bool "some method skipped across the batch" true
    (!skipped_total > 0)

let () =
  Alcotest.run "demand"
    [
      ( "equivalence",
        [
          tc "generated corpus (50 apps)" test_generated_callers;
          tc "case studies" test_case_study_callers;
          tc "demarcation points vs statement scan" test_demarcation_points;
        ] );
      ( "laziness",
        [
          tc "deep chain reachability (100k)" test_deep_chain_reachability;
          tc "unreachable methods stay unresolved" test_demand_skips_methods;
        ] );
    ]
