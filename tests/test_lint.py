"""Static checks over the library source."""

import ast
import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import quadunit


def _library_trees():
    """(file name, module AST) for every file of src/quadunit/*.py."""
    paths = sorted(Path(quadunit.__file__).parent.glob("*.py"))
    assert {p.name for p in paths} >= {"arith.py", "cli.py", "contfrac.py", "progressions.py", "survey.py"}
    for path in paths:
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _library_nodes():
    """(file name, node) for every AST node of src/quadunit/*.py."""
    for name, tree in _library_trees():
        for node in ast.walk(tree):
            yield name, node


def test_no_assert_statements_in_library():
    # invariants are explicit raises: python -O strips assert statements
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def _is_walk_step(node) -> bool:
    """node is ``(d - X * X) // Q``, the (P, Q) recurrence's Q update."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)):
        return False
    num = node.left
    if not (isinstance(num, ast.BinOp) and isinstance(num.op, ast.Sub)):
        return False
    d, sq = num.left, num.right
    named_d = (isinstance(d, ast.Name) and d.id == "d") or (isinstance(d, ast.Attribute) and d.attr == "d")
    return (named_d and isinstance(sq, ast.BinOp) and isinstance(sq.op, ast.Mult)
            and ast.dump(sq.left) == ast.dump(sq.right))


def test_one_pq_walk_in_library():
    # the (P, Q) recurrence lives in one place: a copied walk would add a second
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes() if _is_walk_step(node)]
    assert len(found) == 1, found
    assert found[0].startswith("contfrac.py:")


def test_half_walk_only_in_contfrac():
    # the half-period walk is the one stored form of a period: other modules
    # read it through CFExpansion, fundamental_unit and regulator
    found = _uses("_half_cycle")
    assert found and all(scope.startswith("contfrac.py") for scope in found), found


def _budget_channel_breach(name, node) -> bool:
    """node reads the environment outside cli.py, or passes a trial_bound."""
    if name != "cli.py":
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            return isinstance(node.value, ast.Name) and node.value.id == "os"
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            return any(alias.name in ("environ", "getenv") for alias in node.names)
    return isinstance(node, (ast.arg, ast.keyword)) and node.arg == "trial_bound"


def test_factor_budget_has_one_channel():
    # the trial bound reaches the library only through factor_budget's
    # context value, and only the CLI reads the environment
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes() if _budget_channel_breach(name, node)]
    assert found == []


def _sieve_breach(name, node) -> bool:
    """node calls or imports the square-part sieve outside progressions.py."""
    if name == "progressions.py":
        return False
    sieve = ("square_parts_quadratic", "_sieve")
    if isinstance(node, ast.ImportFrom):
        return any(alias.name in sieve for alias in node.names)
    if isinstance(node, ast.Call):
        func = node.func
        return (isinstance(func, ast.Name) and func.id in sieve) or (
            isinstance(func, ast.Attribute) and func.attr in sieve)
    return False


def test_one_trace_scan():
    # trace discriminants t^2 - 4 sigma reach the sieve only through
    # progressions.trace_kernels: a second scan would copy its decisions
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes() if _sieve_breach(name, node)]
    assert found == []


class _Uses(ast.NodeVisitor):
    """Qualified scope of every reference to one name in one module."""

    def __init__(self, name, target):
        self.scope, self.target, self.found = [name], target, []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Attribute(self, node):
        if node.attr == self.target:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == self.target:
            self.found.append(".".join(self.scope))

    def visit_ImportFrom(self, node):
        if any(alias.name == self.target for alias in node.names):
            self.found.append(".".join(self.scope))


def _uses(target):
    found = []
    for name, tree in _library_trees():
        uses = _Uses(name, target)
        uses.visit(tree)
        found += uses.found
    return found


def test_order_is_exact():
    # qi_compare decides every order: no sort key reads a float value
    keys = [kw.value for _, node in _library_nodes() if isinstance(node, ast.Call)
            for kw in node.keywords if kw.arg == "key"]
    found = [ast.unparse(key) for key in keys for node in ast.walk(key)
             if isinstance(node, ast.Attribute) and node.attr in ("approx", "value_approx", "value")]
    assert keys and found == [], found


def test_quadfield_has_no_float():
    # quadfield decides every order, so no float reaches it: no math import
    # and no float literal
    tree = dict(_library_trees())["quadfield.py"]
    found = [f"quadfield.py:{node.lineno}" for node in ast.walk(tree)
             if (isinstance(node, ast.Import) and any(a.name == "math" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module == "math")
             or (isinstance(node, ast.Constant) and isinstance(node.value, float))]
    assert found == []


def test_one_square_test_in_survey():
    # the per-field route reads convergents: the only square test in
    # survey.py is E_mu's scan for eps_d
    calls = [scope for scope in _uses("is_square") if scope.startswith("survey.py.")]
    assert calls == ["survey.py._within_unit"], calls


def test_one_residual_certificate():
    # the residual certificate is decided in one place: a per-index twin
    # calling the delta test would decide it a second time
    assert _uses("_delta_within") == ["contfrac.py.residuals_hold"]


def test_period_read_in_order():
    # the certificate, cf's quotient list, the xi/alpha check and the
    # minimal elements read the period in order through CFExpansion.period:
    # no per-index accessor call
    accessors = {"state", "partial_quotient", "nu", "xi", "convergent"}
    scopes = {("contfrac.py", "residuals_hold"), ("cli.py", "_cmd_cf"),
              ("ideals.py", "xi_alpha_check"), ("survey.py", "minimal_elements")}
    functions = [(name, fn) for name, tree in _library_trees() for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and (name, fn.name) in scopes]
    calls = [(name, fn.name, node) for name, fn in functions for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    found = [f"{name}:{node.lineno}" for name, _, node in calls if node.func.attr in accessors]
    readers = {(name, fn) for name, fn, node in calls if node.func.attr == "period"}
    assert len(functions) == 4 and found == [] and readers == scopes, (functions, found, readers)
    # and CFExpansion has one public reader, which takes no index
    tree = dict(_library_trees())["contfrac.py"]
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "CFExpansion"]
    public = [fn for fn in cls.body if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    assert [fn.name for fn in public] == ["period"]
    assert [ast.unparse(fn.args) for fn in public] == ["self"]


def test_regulator_sums_in_order():
    # the regulator adds its terms left to right: sum() compensates float
    # sums from Python 3.12 and math.fsum rounds once, and either would
    # change the last bits of the printed log_eps and residual
    functions = [fn for name, tree in _library_trees() if name == "contfrac.py" for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and fn.name == "regulator"]
    found = [node.lineno for fn in functions for node in ast.walk(fn)
             if (isinstance(node, ast.Name) and node.id in ("sum", "fsum"))
             or (isinstance(node, ast.Attribute) and node.attr == "fsum")]
    assert len(functions) == 1 and found == [], found


def test_integral_basis_stays_in_quadfield():
    # whether w[d] is (1 + sqrt(d))/2 or sqrt(d) is decided in quadfield
    # alone: other modules use half coordinates (u + v*sqrt(d))/2, or D, e, t
    found = [scope for name in ("is_half", "omega_norm") for scope in _uses(name)]
    assert found and all(scope.startswith("quadfield.py.") for scope in found), found


def test_cli_streams_its_output():
    # tables go to stdout or the --output file row by row: cli.py builds no
    # whole output text in a buffer first
    found = [scope for name in ("StringIO", "getvalue") for scope in _uses(name)]
    assert [scope for scope in found if scope.startswith("cli.py")] == []


def test_e_mu_entries_have_slots():
    # the report E_mu collects holds up to 2x entries at once: no
    # per-instance __dict__; the fields, in order, are the E_mu stream's
    # merge key
    from quadunit.survey import EMuEntry

    assert EMuEntry._fields == ("value", "trace", "signed_norm", "d", "sqrt_coeff")
    assert not hasattr(EMuEntry(2**0.5, 0, -2, 2, 2), "__dict__")  # sqrt(2)


def test_e_mu_keeps_no_unit_map():
    # E_mu decides xi <= eps_d on each candidate (survey._within_unit): no
    # table of units, whose sieves would add two to the two trace sieves of
    # each E_mu call; the (trace, f) map is a test oracle
    tables = ("_unit_map", "_unit_traces", "_unit_sqrt_coeff")
    defined = [f"{name}:{node.lineno}" for name, node in _library_nodes()
               if isinstance(node, ast.FunctionDef) and node.name in tables]
    assert defined == [] and [scope for name in tables for scope in _uses(name)] == []
    scans = [scope for scope in _uses("trace_kernels") if scope.startswith("survey.py")]
    assert scans == ["survey.py", "survey.py._e_mu_trace", "survey.py.f_mu", "survey.py._bound_rows"], scans


def test_e_mu_merges_two_scans():
    # each norm's kept candidates already come in value order, so the E_mu
    # stream merges the two scans: no sort, no emit window, no block size
    trees = dict(_library_trees())
    trace = next(fn for fn in ast.walk(trees["survey.py"])
                 if isinstance(fn, ast.FunctionDef) and fn.name == "_e_mu_trace")
    calls = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
             for node in ast.walk(trace) if isinstance(node, ast.Call)
             and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert "_merge_by_value" in calls and not calls & {"sort", "sorted", "bisect_left"}, calls
    # the merge key is the entry itself: each kept candidate is built once,
    # as an EMuEntry inside the scan generator kept, and the merge's output
    # is yielded as it is, not unpacked and re-built in a loop
    kept = next(fn for fn in ast.walk(trace) if isinstance(fn, ast.FunctionDef) and fn.name == "kept")

    def builds(tree):
        return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "EMuEntry"]

    assert builds(trace) == builds(kept) != []
    loops = [node.iter for node in ast.walk(trace) if isinstance(node, (ast.For, ast.comprehension))]
    assert not [it for it in loops if isinstance(it, ast.Call) and getattr(it.func, "id", None) == "_merge_by_value"]
    defined = [node.lineno for node in ast.walk(trees["survey.py"])
               if (isinstance(node, ast.FunctionDef) and node.name == "_trace_blocks")
               or (isinstance(node, ast.Name) and node.id == "E_MU_BLOCK")]
    assert defined == []


def test_cli_reads_e_mu_as_a_stream():
    # survey e-mu writes its rows from e_mu_stream: reading a report's
    # entries would hold them all before the first row
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if name == "cli.py" and isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert found == []
    assert "cli.py._cmd_survey" in _uses("e_mu_stream")
    assert [scope for scope in _uses("E_mu") if scope.startswith("cli.py")] == []


def test_library_imports_no_private_names():
    # each module, the CLI included, reads the others through their public
    # names only (the trial bound through arith.trial_bound, for one)
    found = [f"{name}:{node.lineno} {node.module}.{alias.name}" for name, node in _library_nodes()
             if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("quadunit"))
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def _is_trial_loop(node) -> bool:
    """node is ``primes_up_to(min(...))``, the trial primes of one input."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "primes_up_to"
            and len(node.args) == 1 and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Name) and node.args[0].func.id == "min")


def test_one_trial_division_pass():
    # factorize and squarefree_kernel share one trial-division loop: a
    # copied loop would need every budget change made twice
    calls = [f"{name}:{node.lineno}" for name, node in _library_nodes() if _is_trial_loop(node)]
    scopes = [f"{name}.{fn.name}" for name, tree in _library_trees() for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and any(map(_is_trial_loop, ast.walk(fn)))]
    assert len(calls) == 1 and scopes == ["arith.py._trial_divide"], (calls, scopes)


def test_one_sweep_pool():
    # the bound and pell sweeps share one driver: it, or one helper that
    # only it calls, forks the workers and ends them, and every chunk
    # enters its trial budget in one place
    found = set(_uses("fork")) | set(_uses("_exit"))
    assert len(found) == 1, found
    (scope,) = found
    assert scope == "survey.py._sweep" or set(_uses(scope.rpartition(".")[2])) == {"survey.py._sweep"}, scope
    assert _uses("ProcessPoolExecutor") == []
    budget = [scope for scope in _uses("factor_budget") if scope.startswith("survey.py.")]  # not the import
    assert budget and set(budget) == {"survey.py._run_chunk"}, budget


def test_cli_import_leaves_the_pool_out():
    # a query that runs no parallel sweep does not pay for importing a pool,
    # or pickle, which only the forked sweep workers use
    code = "import sys, quadunit.cli; print(sorted({'concurrent.futures', 'pickle'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_cli_import_leaves_dataclasses_out():
    # every process start pays for what import quadunit.cli loads:
    # dataclasses, with the inspect module it pulls in, took about a fifth
    # of that import, before the class processing
    code = "import sys, quadunit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_library_imports_no_dataclasses():
    # the record types are named tuples: dataclasses would cost every
    # process start the import and the class processing
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")]
    assert found == []


def _is_half_coords_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "half_coords")


def _passes_an_element(call) -> bool:
    """call is ``pair_of(mu, u, v)`` or ``pair_of(mu, *x.half_coords())``."""
    starred = [isinstance(arg, ast.Starred) for arg in call.args]
    spread = starred == [False, True] and _is_half_coords_call(call.args[1].value)
    return not call.keywords and (spread or starred == [False, False, False])


def _operands(node):
    """The operands of a ``%`` or ``//`` expression or augmented assignment."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mod, ast.FloorDiv)):
        return node.left, node.right
    if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Mod, ast.FloorDiv)):
        return node.target, node.value
    return ()


def test_pair_of_takes_an_element():
    # pair_of reads the branch and the index pair off an element's half
    # coordinates (u + v sqrt(d))/2, so no caller encodes either itself
    calls = [(name, node) for name, node in _library_nodes() if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "pair_of"]
    assert {name for name, _ in calls} >= {"progressions.py", "survey.py"}, calls
    found = [f"{name}:{node.lineno}" for name, node in calls if not _passes_an_element(node)]
    assert found == []
    # and survey.py takes no residue or quotient of those coordinates
    survey = dict(_library_trees())["survey.py"]
    for fn in ast.walk(survey):
        if not isinstance(fn, ast.FunctionDef):
            continue
        coords = {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                  and _is_half_coords_call(node.value) for elt in node.targets
                  for target in ast.walk(elt) if isinstance(target, ast.Name)}
        found += [f"survey.py:{node.lineno}" for node in ast.walk(fn)
                  if any(_is_half_coords_call(side) or (isinstance(side, ast.Name) and side.id in coords)
                         for side in _operands(node))]
    assert found == []


def _loops_over_candidates(fn) -> bool:
    """fn has a loop or comprehension whose body calls ``_candidate``."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return any(isinstance(loop, loops) and any(
        isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_candidate"
        for call in ast.walk(loop)) for loop in ast.walk(fn))


def test_one_progression_start_scan():
    # build_progression and the pell sweep's membership check share one
    # candidate loop, so a change to how a start is decided reaches both;
    # survey.py scans through unit_progression, not a full build_progression
    scans = [f"{name}.{fn.name}" for name, tree in _library_trees() for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and _loops_over_candidates(fn)]
    assert scans == ["progressions.py._scan_start"], scans
    assert sorted(_uses("_scan_start")) == ["progressions.py.build_progression", "progressions.py.unit_progression"]
    assert _uses("_witness") == ["progressions.py._scan_start"]
    assert [scope for scope in _uses("build_progression") if scope.startswith("survey.py")] == []
    assert [scope for scope in _uses("unit_progression") if scope.startswith("survey.py.")] == [
        "survey.py._assert_unit_progression_membership"]


# The paper's claims, stated as checks: the acceptance suite runs them (also
# through quadunit verify), so no library code calls them.
CLAIM_CHECKS = frozenset({
    "E_mu", "EMuReport.keys", "split_identity_check", "ramified_identity_check",
    "count_reduced_formula", "reduced_ideals_of_norm", "conjugate_coprime",
    "omega_p_predicted", "xi_alpha_check",
})


def _public_functions():
    """(file name, qualified name, node) of each public module-level function and method."""
    for name, tree in _library_trees():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield name, node.name, node
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        yield name, f"{node.name}.{fn.name}", fn


def _names(nodes) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in nodes if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_function_has_a_library_caller():
    # a public name that only tests reach is a capability nothing runs: each
    # is referenced somewhere in the library outside its own body, or is
    # one of the claim checks
    everywhere = _names(node for _, node in _library_nodes())
    functions = list(_public_functions())
    found = [f"{name}:{qual}" for name, qual, fn in functions
             if qual not in CLAIM_CHECKS and everywhere[fn.name] == _names(ast.walk(fn))[fn.name]]
    assert found == []
    assert CLAIM_CHECKS <= {qual for _, qual, _ in functions}


def _bench_reads(tree):
    """Dotted quadunit names one bench module reads: each name it imports from
    quadunit, and each attribute chain it reads from an imported quadunit module."""
    reads, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quadunit":
            for alias in node.names:
                reads.append(f"{node.module}.{alias.name}")
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.insert(0, node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in modules:
                reads.append(".".join([modules[node.id], *attrs]))
    return reads


def _resolves(dotted) -> bool:
    """dotted names a module of quadunit, or an attribute reached from one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for part in parts[cut:]:
                obj = getattr(obj, part)
        except AttributeError:
            return False
        return True
    return False


def test_bench_reads_resolve():
    # the benchmark's in-process runs read the library by name (cli.main,
    # the LRU statistics behind --trace, CFExpansion in micro mode): each of
    # those names must still exist; string literals are not read
    bench = Path(__file__).resolve().parents[1] / "bench"
    reads = [dotted for path in sorted(bench.glob("*.py")) for dotted in _bench_reads(ast.parse(path.read_text()))]
    assert {"quadunit.contfrac.expand_omega.cache_info", "quadunit.quadfield.field_context.cache_info",
            "quadunit.contfrac.CFExpansion", "quadunit.cli.main"} <= set(reads), reads
    assert [dotted for dotted in reads if not _resolves(dotted)] == []
