(* Call graph over application methods, built with class-hierarchy analysis
   plus pluggable implicit-callback resolution.  Implicit call flows through
   thread/HTTP libraries (AsyncTask, Volley, Retrofit — §3.4) are injected
   by the semantics layer through [callback_resolver], mirroring how the
   paper adds EDGEMINER-style callback edges that FlowDroid misses.

   Construction is demand-driven, after BackDroid's index-then-explore
   design: [lazy_build] scans the program once into a method index, and
   methods are resolved only on first visit, seeded by the slicer from the
   demarcation points it finds through that index.  Caller lookups go
   through the index too: every direct callee of an invoke shares the
   invoke's method name, so the index's per-name site list plus the
   registered callback-trigger names over-approximate any method's caller
   set; resolving just those candidate sites confirms it. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Index = Extr_ir.Index
module Metrics = Extr_telemetry.Metrics

let m_resolved =
  Metrics.counter ~help:"methods whose call sites were resolved (CHA + callbacks)"
    "callgraph.methods_resolved"

type callsite = {
  cs_stmt : Ir.stmt_id;
  cs_invoke : Ir.invoke;
  cs_callees : Ir.method_id list;  (** resolved application-method targets *)
  cs_implicit : bool;  (** true when the edge comes from a callback model *)
}

(** [callback_resolver prog invoke] returns the application methods that
    the library call [invoke] will eventually invoke (e.g. [task.execute()]
    → [C.doInBackground] and [C.onPostExecute]). *)
type callback_resolver = Prog.t -> Ir.invoke -> Ir.method_id list

let no_callbacks : callback_resolver = fun _ _ -> []

(* Per-method resolution result: the record list in scan order, plus the
   same records bucketed by statement index for O(1) [callsite_at]. *)
type resolved = {
  rs_sites : callsite list;
  rs_by_idx : callsite list array;
}

let empty_resolved = { rs_sites = []; rs_by_idx = [||] }

type t = {
  prog : Prog.t;
  resolver : callback_resolver;
  index : Index.t;
  trigger_names : string list;
      (** invoke names the callback resolver can answer for; candidate
          implicit-caller sites are found through these *)
  resolved_tbl : (Ir.method_id, resolved) Hashtbl.t;
  callers_memo : (Ir.method_id, Ir.stmt_id list) Hashtbl.t;
  mutable trigger_map : (Ir.method_id, (int * Ir.stmt_id) list) Hashtbl.t option;
      (** callee → caller sites among the trigger-name call sites, in scan
          order — built once on the first caller query.  Trigger names
          include ["<init>"], so rescanning every trigger site per query
          made caller lookups quadratic in practice. *)
  (* Statement-level flow arrays, shared by every taint engine of the run
     (they used to be rebuilt per engine, for all methods, per slice). *)
  preds_memo : (Ir.method_id, int list array) Hashtbl.t;
  succs_memo : (Ir.method_id, int list array) Hashtbl.t;
}

(* One method's call-site records: statements in order, the direct (CHA)
   record before the implicit (callback) record at the same statement. *)
let resolve_method t (mid : Ir.method_id) : resolved =
  match Hashtbl.find_opt t.resolved_tbl mid with
  | Some r -> r
  | None -> (
      match Prog.find_method t.prog mid with
      | None -> empty_resolved
      | Some m ->
          let n = Array.length m.Ir.m_body in
          let by_idx = Array.make n [] in
          let sites = ref [] in
          Array.iteri
            (fun idx stmt ->
              match Ir.stmt_invoke stmt with
              | None -> ()
              | Some invoke ->
                  let sid = { Ir.sid_meth = mid; sid_idx = idx } in
                  let direct =
                    Prog.callees t.prog invoke |> List.map Ir.method_id_of_meth
                  in
                  let implicit = t.resolver t.prog invoke in
                  (* Keep only callbacks that exist as application methods. *)
                  let implicit =
                    List.filter
                      (fun id ->
                        match Prog.find_method t.prog id with
                        | Some _ -> not (List.mem id direct)
                        | None -> false)
                      implicit
                  in
                  let records = ref [] in
                  if direct <> [] then
                    records :=
                      { cs_stmt = sid; cs_invoke = invoke; cs_callees = direct;
                        cs_implicit = false }
                      :: !records;
                  if implicit <> [] then
                    records :=
                      { cs_stmt = sid; cs_invoke = invoke; cs_callees = implicit;
                        cs_implicit = true }
                      :: !records;
                  let records = List.rev !records in
                  by_idx.(idx) <- records;
                  sites := List.rev_append records !sites)
            m.Ir.m_body;
          let r = { rs_sites = List.rev !sites; rs_by_idx = by_idx } in
          Hashtbl.replace t.resolved_tbl mid r;
          Metrics.incr m_resolved;
          r)

let lazy_build ?(callback_resolver = no_callbacks) ?(callback_triggers = [])
    (prog : Prog.t) : t =
  {
    prog;
    resolver = callback_resolver;
    index = Index.build prog;
    trigger_names = callback_triggers;
    resolved_tbl = Hashtbl.create 256;
    callers_memo = Hashtbl.create 64;
    trigger_map = None;
    preds_memo = Hashtbl.create 256;
    succs_memo = Hashtbl.create 256;
  }

let callsites t mid = (resolve_method t mid).rs_sites

let callsite_at t (sid : Ir.stmt_id) =
  let r = resolve_method t sid.Ir.sid_meth in
  if sid.Ir.sid_idx >= 0 && sid.Ir.sid_idx < Array.length r.rs_by_idx then
    r.rs_by_idx.(sid.Ir.sid_idx)
  else []

(* Caller lookup.  Direct edges to a callee can only come from sites
   invoking the callee's own name; implicit edges only from sites invoking
   a registered trigger name.  All trigger-name sites are resolved once
   into a callee-keyed map ([trigger_map]) — the trigger registry includes
   ["<init>"], so per-query rescans would walk most constructor sites of
   the program on every lookup.  The result lists callers in reverse scan
   order, with one entry per occurrence of the callee in a record's target
   list (what consing each site during a forward scan of every method
   yields); the two ord-ascending hit streams are merged then reversed. *)
let trigger_map_of t =
  match t.trigger_map with
  | Some m -> m
  | None ->
      let sites =
        List.concat_map
          (Index.sites_invoking t.index)
          (List.sort_uniq String.compare t.trigger_names)
        |> List.sort (fun (a : Index.site) b ->
               Int.compare a.Index.st_ord b.Index.st_ord)
      in
      let map = Hashtbl.create 64 in
      List.iter
        (fun (s : Index.site) ->
          List.iter
            (fun cs ->
              List.iter
                (fun c ->
                  let prev = Option.value (Hashtbl.find_opt map c) ~default:[] in
                  Hashtbl.replace map c ((s.Index.st_ord, s.Index.st_stmt) :: prev))
                cs.cs_callees)
            (callsite_at t s.Index.st_stmt))
        sites;
      (* Consed while walking ascending ords: flip back to scan order. *)
      Hashtbl.iter (fun k v -> Hashtbl.replace map k (List.rev v)) (Hashtbl.copy map);
      t.trigger_map <- Some map;
      map

let callers t callee =
  match Hashtbl.find_opt t.callers_memo callee with
  | Some l -> l
  | None ->
      let implicit =
        Option.value (Hashtbl.find_opt (trigger_map_of t) callee) ~default:[]
      in
      let result =
        if List.exists (String.equal callee.Ir.id_name) t.trigger_names then
          (* The callee's own name is a trigger, so its name sites are
             already covered by the map. *)
          List.rev_map snd implicit
        else begin
          let name_hits =
            List.concat_map
              (fun (s : Index.site) ->
                List.concat_map
                  (fun cs ->
                    List.filter_map
                      (fun c ->
                        if Ir.Method_id.equal c callee then
                          Some (s.Index.st_ord, s.Index.st_stmt)
                        else None)
                      cs.cs_callees)
                  (callsite_at t s.Index.st_stmt))
              (Index.sites_invoking t.index callee.Ir.id_name)
          in
          (* Merge the ord-ascending streams; consing as we go leaves the
             final list in reverse scan order. *)
          let rec merge acc a b =
            match (a, b) with
            | [], rest | rest, [] ->
                List.fold_left (fun acc (_, sid) -> sid :: acc) acc rest
            | (o1, s1) :: ta, (o2, _) :: _ when o1 < o2 -> merge (s1 :: acc) ta b
            | _, (_, s2) :: tb -> merge (s2 :: acc) a tb
          in
          merge [] name_hits implicit
        end
      in
      Hashtbl.replace t.callers_memo callee result;
      result

let index t = t.index

let resolved_count t = Hashtbl.length t.resolved_tbl

(** All application methods transitively reachable from the entry points,
    following both explicit and implicit edges.  Explicit work-stack: deep
    synthetic call chains (--gen corpora) used to blow the OCaml stack
    here and surface as a spurious [crashed] quarantine. *)
let reachable_from t (entries : Ir.method_id list) =
  let seen = ref Ir.Method_set.empty in
  let stack = ref entries in
  let rec drain () =
    match !stack with
    | [] -> ()
    | mid :: rest ->
        stack := rest;
        if not (Ir.Method_set.mem mid !seen) then begin
          seen := Ir.Method_set.add mid !seen;
          List.iter
            (fun cs ->
              List.iter (fun c -> stack := c :: !stack) cs.cs_callees)
            (callsites t mid)
        end;
        drain ()
  in
  drain ();
  !seen

let stmt_preds t (mid : Ir.method_id) =
  match Hashtbl.find_opt t.preds_memo mid with
  | Some a -> Some a
  | None -> (
      match Prog.find_method t.prog mid with
      | None -> None
      | Some m ->
          let a = Cfg.stmt_predecessors m in
          Hashtbl.replace t.preds_memo mid a;
          Some a)

let stmt_succs t (mid : Ir.method_id) =
  match Hashtbl.find_opt t.succs_memo mid with
  | Some a -> Some a
  | None -> (
      match Prog.find_method t.prog mid with
      | None -> None
      | Some m ->
          let a = Cfg.stmt_successors m in
          Hashtbl.replace t.succs_memo mid a;
          Some a)
