(* The sharded corpus farm: the deterministic --shard K/N partition, the
   parametric corpus generator behind --gen, and the offline merge that
   folds N shard artifact sets back into the unsharded run's — all
   exercised in-process over small generated corpora with throwaway temp
   directories (the shard_check runtest rule covers the same contracts
   through the real binary). *)

module Corpus = Extr_corpus.Corpus
module Spec = Extr_corpus.Spec
module Journal = Extr_resilience.Journal
module Runner = Extr_eval.Runner
module Merge = Extr_eval.Merge
module Stats = Extr_eval.Stats
module Store = Extr_store.Store
module Clock = Extr_telemetry.Clock
module Export = Extr_telemetry.Export

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let tmp_dir () =
  let f = Filename.temp_file "shard" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let write path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

let gen_seed = 3
let gen_count = 8
let entries () = Corpus.generated ~seed:gen_seed ~count:gen_count

let opts ?shard ~dir tag =
  {
    Runner.default_options with
    Runner.ro_sleep = fst (Clock.sleep_recording ());
    ro_journal = Some (Filename.concat dir (tag ^ ".jsonl"));
    ro_cache_dir = Some (Filename.concat dir (tag ^ "-cache"));
    ro_shard = shard;
    ro_corpus_tag = Some (Printf.sprintf "gen=%d:%d" gen_seed gen_count);
  }

let run_ok options entries =
  match Runner.run options entries with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let merge_ok ~options ~entries ~journals ?(cache_dirs = []) ?expect_shards ()
    =
  match Merge.merge ~options ~entries ~journals ~cache_dirs ?expect_shards ()
  with
  | Ok t -> t
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Partition                                                          *)
(* ------------------------------------------------------------------ *)

let test_shard_partition () =
  let names =
    List.map (fun (e : Corpus.entry) -> e.Corpus.c_app.Spec.a_name)
      (Corpus.generated ~seed:1 ~count:100)
  in
  List.iter
    (fun shards ->
      (* Total: every name lands on exactly one shard, in range. *)
      let counts = Array.make shards 0 in
      List.iter
        (fun n ->
          let k = Runner.shard_index ~shards n in
          check Alcotest.bool "index in range" true (k >= 0 && k < shards);
          counts.(k) <- counts.(k) + 1)
        names;
      check Alcotest.int "partition covers the corpus" 100
        (Array.fold_left ( + ) 0 counts);
      (* Deterministic: the same name always lands on the same shard. *)
      List.iter
        (fun n ->
          check Alcotest.int "stable assignment"
            (Runner.shard_index ~shards n)
            (Runner.shard_index ~shards n))
        names)
    [ 1; 2; 3; 7 ];
  (* The whole corpus on one shard when N = 1. *)
  List.iter
    (fun n -> check Alcotest.int "single shard owns all" 0
        (Runner.shard_index ~shards:1 n))
    names

let test_shard_rejects_bad_spec () =
  let es = entries () in
  let dir = tmp_dir () in
  List.iter
    (fun shard ->
      match
        Runner.run { (opts ~shard ~dir "bad") with Runner.ro_journal = None }
          es
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "out-of-range --shard accepted")
    [ (0, 3); (4, 3); (1, 0) ]

(* ------------------------------------------------------------------ *)
(* Generator                                                          *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  let a = Corpus.generated ~seed:11 ~count:40 in
  let b = Corpus.generated ~seed:11 ~count:40 in
  check Alcotest.int "count honoured" 40 (List.length a);
  let names l =
    List.map (fun (e : Corpus.entry) -> e.Corpus.c_app.Spec.a_name) l
  in
  check Alcotest.(list string) "same seed, same corpus" (names a) (names b);
  let uniq = List.sort_uniq compare (names a) in
  check Alcotest.int "names unique" 40 (List.length uniq);
  let endpoints l =
    List.map
      (fun (e : Corpus.entry) -> List.length e.Corpus.c_app.Spec.a_endpoints)
      l
  in
  check Alcotest.(list int) "same seed, same shapes" (endpoints a)
    (endpoints b);
  let c = Corpus.generated ~seed:12 ~count:40 in
  check Alcotest.bool "different seed, different corpus" true
    (endpoints a <> endpoints c)

let test_generator_rows_sane () =
  List.iter
    (fun (e : Corpus.entry) ->
      let app = e.Corpus.c_app in
      check Alcotest.bool "has endpoints" true (app.Spec.a_endpoints <> []);
      List.iter
        (fun (ep : Spec.endpoint) ->
          check Alcotest.bool "endpoint has a path" true (ep.Spec.e_path <> []))
        app.Spec.a_endpoints)
    (Corpus.generated ~seed:2 ~count:50)

(* ------------------------------------------------------------------ *)
(* strip_shard                                                        *)
(* ------------------------------------------------------------------ *)

let test_strip_shard () =
  let kn = Alcotest.(option (pair int int)) in
  let case config want_base want_kn =
    let base, shard = Runner.strip_shard config in
    check Alcotest.string "base" want_base base;
    check kn "shard" want_kn shard
  in
  case "a;b;v1" "a;b;v1" None;
  case "a;b;v1;shard=2/5" "a;b;v1" (Some (2, 5));
  case "a;b;v1;shard=1/1" "a;b;v1" (Some (1, 1));
  (* Malformed or out-of-range suffixes are ordinary content. *)
  case "a;shard=0/3" "a;shard=0/3" None;
  case "a;shard=4/3" "a;shard=4/3" None;
  case "a;shard=x/y" "a;shard=x/y" None;
  case "a;shard=" "a;shard=" None;
  (* The runner's own fingerprints round-trip. *)
  let o =
    { Runner.default_options with Runner.ro_shard = Some (2, 3) }
  in
  let base, shard = Runner.strip_shard (Runner.journal_fingerprint o) in
  check Alcotest.string "runner base recovered"
    (Runner.config_fingerprint o) base;
  check kn "runner shard recovered" (Some (2, 3)) shard

(* ------------------------------------------------------------------ *)
(* Shard runs + merge                                                 *)
(* ------------------------------------------------------------------ *)

(* One unsharded run and a 2-way shard split over the same generated
   corpus, reused across the merge scenarios below. *)
let with_shard_runs f =
  let dir = tmp_dir () in
  let es = entries () in
  let base_o = opts ~dir "base" in
  let base_run = run_ok base_o es in
  let base_json =
    Runner.report_json ~config:(Runner.journal_fingerprint base_o) base_run
  in
  let shard_o k = opts ~shard:(k, 2) ~dir (Printf.sprintf "s%d" k) in
  let s1 = run_ok (shard_o 1) es and s2 = run_ok (shard_o 2) es in
  check Alcotest.int "shards split the corpus" gen_count
    (List.length s1.Runner.rn_results + List.length s2.Runner.rn_results);
  check Alcotest.bool "both shards own work" true
    (s1.Runner.rn_results <> [] && s2.Runner.rn_results <> []);
  let j k = Filename.concat dir (Printf.sprintf "s%d.jsonl" k) in
  let c k = Filename.concat dir (Printf.sprintf "s%d-cache" k) in
  f ~dir ~es ~base_o ~base_json ~journals:[ j 1; j 2 ]
    ~cache_dirs:[ c 1; c 2 ]

let test_merge_reassembles_unsharded () =
  with_shard_runs
    (fun ~dir ~es ~base_o ~base_json ~journals ~cache_dirs ->
      let t = merge_ok ~options:base_o ~entries:es ~journals ~cache_dirs () in
      check Alcotest.int "clean merge exits 0" 0 (Merge.exit_code t);
      check Alcotest.string "envelope byte-identical to unsharded" base_json
        (Merge.report_json t);
      (* Idempotency: merging merge's own outputs reproduces it. *)
      let mj = Filename.concat dir "merged.jsonl" in
      write mj (Merge.journal_contents t);
      let mc = Filename.concat dir "merged-cache" in
      Sys.mkdir mc 0o755;
      List.iter
        (fun (key, data) -> write (Filename.concat mc (key ^ ".json")) data)
        t.Merge.mg_cache;
      let t2 =
        merge_ok ~options:base_o ~entries:es ~journals:[ mj ]
          ~cache_dirs:[ mc ] ()
      in
      check Alcotest.int "re-merge exits 0" 0 (Merge.exit_code t2);
      check Alcotest.string "re-merge is a no-op" (Merge.report_json t)
        (Merge.report_json t2);
      (* Overlap tolerance: merging every input twice changes nothing. *)
      let t3 =
        merge_ok ~options:base_o ~entries:es ~journals:(journals @ journals)
          ~cache_dirs:(cache_dirs @ cache_dirs) ()
      in
      check Alcotest.string "duplicated shards merge identically" base_json
        (Merge.report_json t3))

let test_merge_missing_shard () =
  with_shard_runs
    (fun ~dir:_ ~es ~base_o ~base_json:_ ~journals ~cache_dirs ->
      let t =
        merge_ok ~options:base_o ~entries:es
          ~journals:[ List.hd journals ]
          ~cache_dirs ()
      in
      (* Shard 1's journal declares N=2, so shard 2's absence is
         inferred even without expect_shards. *)
      check Alcotest.(list int) "missing shard listed" [ 2 ]
        t.Merge.mg_missing_shards;
      check Alcotest.bool "its apps are missing too" true
        (t.Merge.mg_missing_apps <> []);
      check Alcotest.int "partial merge exits 4" 4 (Merge.exit_code t);
      let envelope = Merge.report_json t in
      check Alcotest.bool "envelope names the gap" true
        (let contains ~needle hay =
           let n = String.length needle and h = String.length hay in
           let rec go i =
             i + n <= h && (String.sub hay i n = needle || go (i + 1))
           in
           go 0
         in
         contains ~needle:"\"missing_shards\":[2]" envelope
         && contains ~needle:"missing_apps" envelope))

let test_merge_corrupt_cache_entry () =
  with_shard_runs
    (fun ~dir:_ ~es ~base_o ~base_json:_ ~journals ~cache_dirs ->
      (* Truncate one entry in shard 1's cache: its app keeps its
         journal status but loses its report, and the merge degrades
         (exit 3) instead of aborting. *)
      let dir1 = List.hd cache_dirs in
      (match Sys.readdir dir1 with
      | [||] -> Alcotest.fail "shard 1 cache is empty"
      | files -> write (Filename.concat dir1 files.(0)) "{\"torn");
      let t = merge_ok ~options:base_o ~entries:es ~journals ~cache_dirs () in
      check Alcotest.int "degraded merge exits 3" 3 (Merge.exit_code t);
      check Alcotest.bool "degradation recorded" true
        (List.exists
           (fun (d : Merge.degradation) ->
             d.Merge.md_reason = "corrupt cache entry quarantined")
           t.Merge.mg_degradations);
      check Alcotest.int "every app still present" gen_count
        (List.length t.Merge.mg_run.Runner.rn_results))

let test_merge_rejects_foreign_config () =
  with_shard_runs
    (fun ~dir:_ ~es ~base_o ~base_json:_ ~journals ~cache_dirs ->
      let other =
        { base_o with Runner.ro_corpus_tag = Some "gen=99:99" }
      in
      match Merge.merge ~options:other ~entries:es ~journals ~cache_dirs ()
      with
      | Error msg ->
          check Alcotest.bool "error names the mismatch" true
            (String.length msg > 0)
      | Ok _ -> Alcotest.fail "foreign-config journal accepted")

let test_merge_empty_and_unreadable_journals () =
  with_shard_runs
    (fun ~dir ~es ~base_o ~base_json ~journals ~cache_dirs ->
      (* A zero-byte journal — the stale-lock shape a shard leaves when
         killed between open and header — is an empty shard, not an
         error and not a degradation. *)
      let empty = Filename.concat dir "empty.jsonl" in
      write empty "";
      let t =
        merge_ok ~options:base_o ~entries:es ~journals:(journals @ [ empty ])
          ~cache_dirs ()
      in
      check Alcotest.int "empty journal never degrades" 0
        (Merge.exit_code t);
      check Alcotest.string "envelope unchanged" base_json
        (Merge.report_json t);
      (* A missing journal file degrades (exit 3) but never aborts. *)
      let t2 =
        merge_ok ~options:base_o ~entries:es
          ~journals:(journals @ [ Filename.concat dir "nope.jsonl" ])
          ~cache_dirs ()
      in
      check Alcotest.int "unreadable journal degrades" 3
        (Merge.exit_code t2);
      check Alcotest.int "results unaffected" gen_count
        (List.length t2.Merge.mg_run.Runner.rn_results))

let test_shard_journal_isolation () =
  (* A shard refuses to resume another shard's journal: the shard
     identity is part of the journal fingerprint. *)
  let dir = tmp_dir () in
  let es = entries () in
  ignore (run_ok (opts ~shard:(1, 2) ~dir "s1") es);
  let o2 =
    {
      (opts ~shard:(2, 2) ~dir "s2") with
      Runner.ro_journal = Some (Filename.concat dir "s1.jsonl");
      ro_resume = true;
    }
  in
  match Runner.run o2 es with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shard 2 resumed shard 1's journal"

let test_stats_pools_shard_journals () =
  with_shard_runs
    (fun ~dir:_ ~es:_ ~base_o ~base_json:_ ~journals ~cache_dirs:_ ->
      match Stats.of_artifacts ~journals () with
      | Error e -> Alcotest.fail e
      | Ok st ->
          check Alcotest.int "fleet view covers the corpus" gen_count
            (List.length st.Stats.rs_apps);
          check Alcotest.string "shard suffix stripped from config"
            (Runner.config_fingerprint base_o)
            st.Stats.rs_config)

(* ------------------------------------------------------------------ *)
(* One replay, three readers                                          *)
(* ------------------------------------------------------------------ *)

(* A journal written by hand: the header, then each (stamp, record) as
   the runner would append it; [corrupt] records get a tampered body
   under their original seal, so the reader drops them. *)
let write_journal path ~config records =
  let line (stamp, corrupt, ev) =
    let l = Journal.line_of_event ~stamp ev in
    if not corrupt then l
    else
      let i = String.index l ':' in
      String.sub l 0 i ^ " " ^ String.sub l i (String.length l - i)
  in
  write path
    (String.concat "\n"
       (Journal.header_line ~config () :: List.map line records)
    ^ "\n")

let started app = Journal.Started { ev_app = app; ev_key = ""; ev_attempt = 1 }

let finished ?(cached = false) ?(attempts = 1) ?(key = "") app status =
  Journal.Finished
    {
      ev_app = app;
      ev_key = key;
      ev_status = status;
      ev_cached = cached;
      ev_attempts = attempts;
      ev_txs = 0;
    }

let crashed app phase exn = Journal.Crashed { ev_app = app; ev_phase = phase; ev_exn = exn }

type resume_view = Restored of string | Rerun

type merge_view =
  | Merged of string
  | Merged_degraded of string * string  (* status, degradation reason *)
  | Missing

type row = {
  rw_case : string;
  rw_records : string -> (bool * Journal.event) list;  (* corrupt?, record *)
  rw_resume : resume_view;
  rw_merge : merge_view;
  rw_stats : string;
  rw_cached : bool;
}

let k_ok = String.make 32 '1'
let k_degraded = String.make 32 '2'
let k_cached = String.make 32 '3'
let k_torn = String.make 32 '4'
let k_absent = String.make 32 '5'

let replay_rows =
  let intact = List.map (fun ev -> (false, ev)) in
  [
    { rw_case = "ok"; rw_records = (fun a -> intact [ started a; finished ~key:k_ok a "ok" ]);
      rw_resume = Restored "ok"; rw_merge = Merged "ok"; rw_stats = "ok"; rw_cached = false };
    { rw_case = "degraded";
      rw_records =
        (fun a ->
          intact
            [ started a;
              Journal.Retried { ev_app = a; ev_attempt = 2; ev_reason = "budget" };
              finished ~key:k_degraded ~attempts:2 a "degraded" ]);
      rw_resume = Restored "degraded"; rw_merge = Merged "degraded"; rw_stats = "degraded";
      rw_cached = false };
    { rw_case = "cached";
      rw_records = (fun a -> intact [ finished ~key:k_cached ~cached:true ~attempts:0 a "ok" ]);
      rw_resume = Restored "ok"; rw_merge = Merged "ok"; rw_stats = "ok"; rw_cached = true };
    { rw_case = "quarantined with a crash";
      rw_records =
        (fun a ->
          intact [ started a; crashed a "pipeline.slicing" "boom"; finished ~attempts:2 a "quarantined" ]);
      rw_resume = Restored "quarantined"; rw_merge = Merged "quarantined";
      rw_stats = "quarantined"; rw_cached = false };
    (* The behaviour change merge shares with --resume: a Started after a
       Finished voids it, and no other journal finishes the app. *)
    { rw_case = "finished, then restarted";
      rw_records = (fun a -> intact [ started a; finished ~key:k_ok a "ok"; started a ]);
      rw_resume = Rerun; rw_merge = Missing; rw_stats = "in-flight"; rw_cached = false };
    { rw_case = "corrupt record";
      rw_records = (fun a -> [ (false, started a); (true, finished ~key:k_ok a "ok") ]);
      rw_resume = Rerun; rw_merge = Missing; rw_stats = "in-flight"; rw_cached = false };
    { rw_case = "unknown status";
      rw_records = (fun a -> intact [ started a; finished ~key:k_ok a "exotic" ]);
      rw_resume = Rerun; rw_merge = Missing; rw_stats = "exotic"; rw_cached = false };
    { rw_case = "cached non-report";
      rw_records = (fun a -> intact [ started a; finished ~key:k_torn a "ok" ]);
      rw_resume = Rerun; rw_merge = Merged_degraded ("ok", "corrupt cache entry quarantined");
      rw_stats = "ok"; rw_cached = false };
    { rw_case = "report missing";
      rw_records = (fun a -> intact [ started a; finished ~key:k_absent a "ok" ]);
      rw_resume = Rerun; rw_merge = Merged_degraded ("ok", "cache entry missing");
      rw_stats = "ok"; rw_cached = false };
  ]

let test_replay_readers_agree () =
  let dir = tmp_dir () in
  let count = List.length replay_rows in
  let es = Corpus.generated ~seed:gen_seed ~count in
  let jpath = Filename.concat dir "crafted.jsonl" in
  let cdir = Filename.concat dir "crafted-cache" in
  let o =
    {
      Runner.default_options with
      Runner.ro_sleep = fst (Clock.sleep_recording ());
      ro_journal = Some jpath;
      ro_cache_dir = Some cdir;
      ro_resume = true;
      ro_corpus_tag = Some (Printf.sprintf "gen=%d:%d" gen_seed count);
    }
  in
  let rows = List.combine (List.map fst (Runner.identify es)) replay_rows in
  write_journal jpath ~config:(Runner.journal_fingerprint o)
    (List.mapi
       (fun i (corrupt, ev) -> (float_of_int (i + 1), corrupt, ev))
       (List.concat_map (fun (id, r) -> r.rw_records id) rows));
  let store = Store.open_ ~dir:cdir () in
  let put key data = Store.store store (Option.get (Store.key_of_string key)) data in
  put k_ok {|{"transactions":[],"degradations":[]}|};
  put k_cached {|{"transactions":[],"degradations":[]}|};
  put k_degraded
    {|{"transactions":[],"degradations":[{"phase":"slicing","reason":"budget","detail":"d","work_left":3}]}|};
  (* Headerless entries pass the seal check unverified; this one is not a
     report, so every reader must treat it as unusable. *)
  Store.set_integrity false;
  put k_torn {|{"transactions":[|};
  Store.set_integrity true;
  (* The offline readers first: --resume appends to the journal. *)
  let merged = merge_ok ~options:o ~entries:es ~journals:[ jpath ] ~cache_dirs:[ cdir ] () in
  let stats =
    match Stats.of_artifacts ~journals:[ jpath ] () with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let resumed = run_ok o es in
  let find_result label results id =
    match List.find_opt (fun (a : Runner.app_result) -> a.Runner.ar_app = id) results with
    | Some a -> a
    | None -> Alcotest.failf "%s: no result for %s" label id
  in
  List.iter
    (fun (id, r) ->
      let msg what = Printf.sprintf "%s: %s" r.rw_case what in
      let crash_phase (a : Runner.app_result) =
        Option.map (fun c -> c.Extr_resilience.Resilience.Barrier.cr_phase) a.Runner.ar_crash
      in
      let expect_crash status =
        if status = "quarantined" then Some "pipeline.slicing" else None
      in
      (* --resume: restored from the replay, or re-run. *)
      let a = find_result "resume" resumed.Runner.rn_results id in
      (match r.rw_resume with
      | Restored status ->
          check Alcotest.bool (msg "resume restores") true a.Runner.ar_resumed;
          check Alcotest.string (msg "resume status") status
            (Runner.status_name a.Runner.ar_status);
          check Alcotest.bool (msg "resume cached flag") r.rw_cached a.Runner.ar_cached;
          check Alcotest.(option string) (msg "resume crash") (expect_crash status)
            (crash_phase a)
      | Rerun -> check Alcotest.bool (msg "resume re-runs") false a.Runner.ar_resumed);
      (* merge: a result, a result plus a degradation, or a missing app. *)
      let degraded_reasons =
        List.filter_map
          (fun (d : Merge.degradation) ->
            if d.Merge.md_app = id then Some d.Merge.md_reason else None)
          merged.Merge.mg_degradations
      in
      let merged_as status reasons =
        let a = find_result "merge" merged.Merge.mg_run.Runner.rn_results id in
        check Alcotest.string (msg "merge status") status (Runner.status_name a.Runner.ar_status);
        check Alcotest.bool (msg "merge cached flag") r.rw_cached a.Runner.ar_cached;
        check Alcotest.(option string) (msg "merge crash") (expect_crash status) (crash_phase a);
        check Alcotest.(list string) (msg "merge degradations") reasons degraded_reasons;
        check Alcotest.bool (msg "not missing") false (List.mem id merged.Merge.mg_missing_apps)
      in
      (match r.rw_merge with
      | Merged status -> merged_as status []
      | Merged_degraded (status, reason) -> merged_as status [ reason ]
      | Missing ->
          check Alcotest.bool (msg "merge lists it missing") true
            (List.mem id merged.Merge.mg_missing_apps);
          check Alcotest.bool (msg "merge has no result") false
            (List.exists
               (fun (a : Runner.app_result) -> a.Runner.ar_app = id)
               merged.Merge.mg_run.Runner.rn_results));
      (* stats: the same verdict per app. *)
      match List.find_opt (fun a -> a.Stats.st_app = id) stats.Stats.rs_apps with
      | None -> Alcotest.failf "%s: stats has no row" r.rw_case
      | Some a ->
          check Alcotest.string (msg "stats status") r.rw_stats a.Stats.st_status;
          check Alcotest.bool (msg "stats cached flag") r.rw_cached a.Stats.st_cached)
    rows;
  check Alcotest.int "missing apps make a partial merge" 4 (Merge.exit_code merged);
  check Alcotest.int "the corrupt record is counted" 1 stats.Stats.rs_dropped

let test_merge_crash_from_winning_journal () =
  (* Journal A quarantined the app (crash at t=2, finished at t=5);
     journal B crashed it later (t=3) and was killed mid-retry.  A's
     Finished wins, so the envelope and the merged journal must carry
     A's crash, not the newest one in the shard set. *)
  let dir = tmp_dir () in
  let es = entries () in
  let o = opts ~dir "crash" in
  let id = fst (List.hd (Runner.identify es)) in
  let config = Runner.journal_fingerprint o in
  let a = Filename.concat dir "a.jsonl" and b = Filename.concat dir "b.jsonl" in
  write_journal a ~config
    [ (1.0, false, started id); (2.0, false, crashed id "pipeline.slicing" "from A");
      (5.0, false, finished id "quarantined") ];
  write_journal b ~config
    [ (1.5, false, started id); (3.0, false, crashed id "pipeline.interpretation" "from B");
      (4.0, false, Journal.Retried { ev_app = id; ev_attempt = 2; ev_reason = "crash" }) ];
  let t = merge_ok ~options:o ~entries:es ~journals:[ a; b ] () in
  (match t.Merge.mg_run.Runner.rn_results with
  | [ r ] ->
      check Alcotest.(option (pair string string)) "crash from the winning journal"
        (Some ("pipeline.slicing", "from A"))
        (Option.map
           (fun c ->
             Extr_resilience.Resilience.Barrier.(c.cr_phase, c.cr_exn))
           r.Runner.ar_crash)
  | l -> Alcotest.failf "expected one merged app, got %d" (List.length l));
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let mj = Merge.journal_contents t in
  check Alcotest.bool "merged journal keeps A's crash" true (contains ~needle:"from A" mj);
  check Alcotest.bool "merged journal drops B's crash" false (contains ~needle:"from B" mj)

let () =
  Alcotest.run "shard"
    [
      ( "partition",
        [
          tc "total, in-range, deterministic" test_shard_partition;
          tc "bad K/N rejected" test_shard_rejects_bad_spec;
        ] );
      ( "generator",
        [
          tc "seeded and deterministic" test_generator_deterministic;
          tc "generated rows are analyzable" test_generator_rows_sane;
        ] );
      ( "merge",
        [
          tc "fingerprint round-trip" test_strip_shard;
          tc "reassembles the unsharded run, idempotently"
            test_merge_reassembles_unsharded;
          tc "missing shard is explicit (exit 4)" test_merge_missing_shard;
          tc "corrupt cache entry quarantines (exit 3)"
            test_merge_corrupt_cache_entry;
          tc "foreign configuration refused" test_merge_rejects_foreign_config;
          tc "empty vs unreadable journals" test_merge_empty_and_unreadable_journals;
          tc "shards only resume their own journal"
            test_shard_journal_isolation;
        ] );
      ( "stats",
        [ tc "pools a shard set into one view" test_stats_pools_shard_journals ]
      );
      ( "replay",
        [
          tc "resume, merge and stats agree on every journal shape"
            test_replay_readers_agree;
          tc "a quarantined app's crash comes from its winning journal"
            test_merge_crash_from_winning_journal;
        ] );
    ]
