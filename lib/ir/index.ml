(* Inverted index over Limple bodies (BackDroid's bytecode-search stage):
   one linear scan of the program, then O(1) candidate lookups.  Ordinals
   record the canonical scan position of every record so that lookups
   merged across several keys can be replayed in exactly the order a
   whole-program scan would produce — the call graph's caller lists, the
   demarcation points and the async setter sites all come out in that
   canonical order. *)

module T = Types

type site = { st_stmt : T.stmt_id; st_invoke : T.invoke; st_ord : int }
type store = { fs_stmt : T.stmt_id; fs_var : T.var; fs_field : T.field_ref; fs_ord : int }

type t = {
  by_name : (string, site list) Hashtbl.t;  (* invoked name → sites, scan order *)
  by_field : (string * string, store list) Hashtbl.t;
  strings : (T.method_id, string list) Hashtbl.t;
  fields_written : (T.method_id, (string * string) list) Hashtbl.t;
  ix_methods : int;
  ix_sites : int;
}

(* String constants read by a statement, left to right. *)
let stmt_strings stmt =
  let acc = ref [] in
  let value = function T.Const (T.Cstr s) -> acc := s :: !acc | _ -> () in
  let invoke (i : T.invoke) = List.iter value i.T.iargs in
  let expr = function
    | T.Val v | T.Cast (_, v) | T.NewArr (_, v) -> value v
    | T.Binop (_, a, b) ->
        value a;
        value b
    | T.AElem (_, i) -> value i
    | T.Invoke i -> invoke i
    | T.New _ | T.IField _ | T.SField _ | T.ALen _ -> ()
  in
  (match stmt with
  | T.Assign (lhs, e) ->
      (match lhs with T.Lelem (_, v) -> value v | _ -> ());
      expr e
  | T.InvokeStmt i -> invoke i
  | T.Return (Some v) | T.If (v, _) -> value v
  | T.Return None | T.Goto _ | T.Lab _ | T.Nop -> ());
  List.rev !acc

let build (prog : Prog.t) : t =
  let by_name = Hashtbl.create 256 in
  let by_field = Hashtbl.create 64 in
  let strings = Hashtbl.create 256 in
  let fields_written = Hashtbl.create 64 in
  let push tbl key v =
    Hashtbl.replace tbl key (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
  in
  let ord = ref 0 in
  let methods = ref 0 in
  let sites = ref 0 in
  List.iter
    (fun (m : T.meth) ->
      incr methods;
      let mid = T.method_id_of_meth m in
      let strs = ref [] in
      let str_seen = Hashtbl.create 8 in
      let fields = ref [] in
      let field_seen = Hashtbl.create 8 in
      Array.iteri
        (fun idx stmt ->
          let sid = { T.sid_meth = mid; sid_idx = idx } in
          (match T.stmt_invoke stmt with
          | Some i ->
              incr sites;
              push by_name i.T.iref.T.mname
                { st_stmt = sid; st_invoke = i; st_ord = !ord };
              incr ord
          | None -> ());
          (match stmt with
          | T.Assign (T.Lfield (x, f), _) ->
              let key = (f.T.fcls, f.T.fname) in
              push by_field key
                { fs_stmt = sid; fs_var = x; fs_field = f; fs_ord = !ord };
              incr ord;
              if not (Hashtbl.mem field_seen key) then begin
                Hashtbl.replace field_seen key ();
                fields := key :: !fields
              end
          | _ -> ());
          List.iter
            (fun s ->
              if not (Hashtbl.mem str_seen s) then begin
                Hashtbl.replace str_seen s ();
                strs := s :: !strs
              end)
            (stmt_strings stmt))
        m.T.m_body;
      if !strs <> [] then Hashtbl.replace strings mid (List.rev !strs);
      if !fields <> [] then Hashtbl.replace fields_written mid (List.rev !fields))
    (Prog.app_methods prog);
  (* Finalize the consed per-key lists back into scan order. *)
  Hashtbl.iter (fun k v -> Hashtbl.replace by_name k (List.rev v))
    (Hashtbl.copy by_name);
  Hashtbl.iter (fun k v -> Hashtbl.replace by_field k (List.rev v))
    (Hashtbl.copy by_field);
  { by_name; by_field; strings; fields_written; ix_methods = !methods; ix_sites = !sites }

let sites_invoking t name = Option.value (Hashtbl.find_opt t.by_name name) ~default:[]
let field_stores t key = Option.value (Hashtbl.find_opt t.by_field key) ~default:[]
let strings_of t mid = Option.value (Hashtbl.find_opt t.strings mid) ~default:[]

let fields_written_of t mid =
  Option.value (Hashtbl.find_opt t.fields_written mid) ~default:[]

let method_count t = t.ix_methods
let site_count t = t.ix_sites
