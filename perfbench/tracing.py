"""Traced mode: spans around the library's public functions, from outside.

`Tracer.install` wraps each target below and puts the wrapper in place of
the original everywhere the library holds it: on the class for methods,
and in every `flagcodes` module that imported a wrapped function by name
(for example `rref_code_rows` in `subspaces`).  Each call records a span
(name, start, end, parent span, job id) in memory; `write_spans` saves
them when the run ends.  A span's self time is its duration minus the time
of its child spans.

`LAYER_METRICS` names every per-layer metric with its unit, the end-to-end
metric it should move and on which workloads.
"""

import gzip
import sys
import time
from array import array

LAYERS = ("fields", "matrices", "subspaces", "singer", "flags",
          "constructions", "codefiles", "cli")

# (span name, module, attribute); "Class.method" wraps a method
TARGETS = (
    ("fields.make_field", "fields", "make_field"),
    ("matrices.Matrix", "matrices", "Matrix.__init__"),
    ("matrices.mul_code_rows", "matrices", "mul_code_rows"),
    ("matrices.rref_code_rows", "matrices", "rref_code_rows"),
    ("matrices.matrix_order", "matrices", "matrix_order"),
    ("subspaces.Subspace", "subspaces", "Subspace.__init__"),
    ("subspaces.apply", "subspaces", "Subspace.apply"),
    ("subspaces.dual", "subspaces", "Subspace.dual"),
    ("subspaces.subspace_distance", "subspaces", "subspace_distance"),
    ("subspaces.member_vectors", "subspaces", "member_vectors"),
    ("singer.CyclicMatrixGroup", "singer", "CyclicMatrixGroup.__init__"),
    ("singer.subgroup_of_order", "singer", "CyclicMatrixGroup.subgroup_of_order"),
    ("singer.field_reduction", "singer", "field_reduction"),
    ("singer.orbit_subspace", "singer", "orbit_subspace"),
    ("flags.flag_distance", "flags", "flag_distance"),
    ("flags.apply", "flags", "Flag.apply"),
    ("flags.orbit_flag", "flags", "orbit_flag"),
    ("flags.FlagCode", "flags", "FlagCode.__init__"),
    ("flags.union_flag_codes", "flags", "union_flag_codes"),
    ("flags.projected_code", "flags", "projected_code"),
    ("flags.is_odfc_by_definition", "flags", "is_odfc_by_definition"),
    ("flags.is_odfc_by_characterization", "flags", "is_odfc_by_characterization"),
    ("constructions.build_spread_context", "constructions", "build_spread_context"),
    ("constructions.build_full_type_context", "constructions",
     "build_full_type_context"),
    ("constructions.spread_type_orbit_odfc", "constructions",
     "spread_type_orbit_odfc"),
    ("constructions.spread_type_max_odfc", "constructions", "spread_type_max_odfc"),
    ("constructions.full_type_orbit_odfc", "constructions", "full_type_orbit_odfc"),
    ("constructions.full_type_max_odfc", "constructions", "full_type_max_odfc"),
    ("codefiles.format", "codefiles", "format_flag_code"),
    ("codefiles.format", "codefiles", "format_subspace_code"),
    ("codefiles.write", "codefiles", "write_flag_code"),
    ("codefiles.write", "codefiles", "write_subspace_code"),
    ("codefiles.parse", "codefiles", "parse_code_file"),
    ("codefiles.read", "codefiles", "read_code_file"),
    ("cli.main", "cli", "main"),
    ("cli.verify", "cli", "cmd_verify"),
)


# span name -> (counter suffix, function of (args, result) giving the amount)
AMOUNTS = {
    "matrices.mul_code_rows": ("rows", lambda a, r: len(a[1])),
    "matrices.rref_code_rows": ("rows", lambda a, r: len(a[1])),
    "singer.orbit_subspace": ("steps", lambda a, r: len(r[0])),
    "flags.orbit_flag": ("members", lambda a, r: len(r[0])),
    "subspaces.member_vectors": ("vectors", lambda a, r: len(r)),
    "codefiles.format": ("bytes", lambda a, r: len(r)),
    "codefiles.parse": ("bytes", lambda a, r: len(a[0])),
}

_SETUP = ("setup_s", "construct")
_CONSTRUCT = ("wall_norm_s", "construct")
_VERIFY = ("wall_norm_s", "verify")

# metric name -> (unit, better, (end-to-end metric, workloads) it should move)
LAYER_METRICS = {
    "fields.make_field.calls": ("count", "lower", ("setup_s", "construct")),
    "fields.make_field.s": ("s", "lower", ("setup_s", "construct")),
    "matrices.Matrix.calls": ("count", "lower", ("wall_norm_s", "construct; also setup_s")),
    "matrices.Matrix.self_s": ("s", "lower", ("wall_norm_s", "construct; also setup_s")),
    "matrices.Matrix_per_apply": ("ratio", "lower", ("wall_norm_s", "construct; also setup_s")),
    "matrices.mul_code_rows.calls": ("count", "lower", _CONSTRUCT),
    "matrices.mul_code_rows.rows": ("count", "lower", _CONSTRUCT),
    "matrices.mul_code_rows.self_s": ("s", "lower", _CONSTRUCT),
    "matrices.rref_code_rows.calls": ("count", "lower", ("wall_norm_s", "verify, construct")),
    "matrices.rref_code_rows.rows": ("count", "lower", ("wall_norm_s", "verify, construct")),
    "matrices.rref_code_rows.self_s": ("s", "lower", ("wall_norm_s", "verify, construct")),
    "matrices.matrix_order.calls": ("count", "lower", _SETUP),
    "matrices.matrix_order.s": ("s", "lower", _SETUP),
    "singer.CyclicMatrixGroup.calls": ("count", "lower", _SETUP),
    "singer.CyclicMatrixGroup.s": ("s", "lower", _SETUP),
    "singer.field_reduction.calls": ("count", "lower", _SETUP),
    "singer.field_reduction.s": ("s", "lower", _SETUP),
    "singer.orbit_subspace.calls": ("count", "lower", _SETUP),
    "singer.orbit_subspace.steps": ("count", "lower", _SETUP),
    "singer.orbit_subspace.s": ("s", "lower", _SETUP),
    "subspaces.dual.calls": ("count", "lower", _SETUP),
    "subspaces.dual.s": ("s", "lower", _SETUP),
    "subspaces.Subspace.calls": ("count", "lower", _CONSTRUCT),
    "subspaces.Subspace.self_s": ("s", "lower", _CONSTRUCT),
    "subspaces.apply.calls": ("count", "lower", _CONSTRUCT),
    "subspaces.apply.s": ("s", "lower", _CONSTRUCT),
    "subspaces.subspace_distance.calls": ("count", "lower", _VERIFY),
    "subspaces.subspace_distance.s": ("s", "lower", _VERIFY),
    "subspaces.member_vectors.calls": ("count", "lower", ("setup_s", "construct; wall_norm_s on verify")),
    "subspaces.member_vectors.vectors": ("count", "lower", ("setup_s", "construct; wall_norm_s on verify")),
    "subspaces.member_vectors.s": ("s", "lower", ("setup_s", "construct; wall_norm_s on verify")),
    "singer.subgroup_of_order.calls": ("count", "lower", ("wall_norm_s", "construct")),
    "singer.subgroup_of_order.s": ("s", "lower", ("wall_norm_s", "construct")),
    "flags.flag_distance.calls": ("count", "lower", _VERIFY),
    "flags.flag_distance.s": ("s", "lower", _VERIFY),
    "flags.pairs_per_member": ("ratio", "lower", _VERIFY),
    "flags.apply.calls": ("count", "lower", ("wall_norm_s", "construct; also peak_rss_mb")),
    "flags.apply.s": ("s", "lower", ("wall_norm_s", "construct")),
    "flags.orbit_flag.calls": ("count", "lower", ("wall_norm_s", "construct")),
    "flags.orbit_flag.members": ("count", "lower", ("wall_norm_s", "construct; also peak_rss_mb")),
    "flags.orbit_flag.s": ("s", "lower", ("wall_norm_s", "construct")),
    "flags.FlagCode.calls": ("count", "lower", ("wall_norm_s", "construct; also peak_rss_mb")),
    "flags.FlagCode.s": ("s", "lower", ("wall_norm_s", "construct")),
    "flags.union_flag_codes.s": ("s", "lower", ("wall_norm_s", "construct")),
    "flags.projected_code.calls": ("count", "lower", _VERIFY),
    "flags.projected_code.s": ("s", "lower", _VERIFY),
    "flags.is_odfc_by_definition.s": ("s", "lower", _VERIFY),
    "flags.is_odfc_by_characterization.s": ("s", "lower", _VERIFY),
    "cli.verify.self_s": ("s", "lower", _VERIFY),
    "constructions.build_spread_context.s": ("s", "lower", ("setup_s", "construct")),
    "constructions.build_full_type_context.s": ("s", "lower", ("setup_s", "construct")),
    "constructions.spread_type_orbit_odfc.s": ("s", "lower", ("wall_norm_s", "construct")),
    "constructions.spread_type_max_odfc.s": ("s", "lower", ("wall_norm_s", "construct")),
    "constructions.full_type_orbit_odfc.s": ("s", "lower", ("wall_norm_s", "construct")),
    "constructions.full_type_max_odfc.s": ("s", "lower", ("wall_norm_s", "construct")),
    "constructions.max_scan_hit_ratio": ("ratio", "higher", ("wall_norm_s", "construct")),
    "codefiles.format.s": ("s", "lower", _CONSTRUCT),
    "codefiles.format.bytes": ("bytes", "lower", _CONSTRUCT),
    "codefiles.write.self_s": ("s", "lower", _CONSTRUCT),
    "codefiles.parse.s": ("s", "lower", _VERIFY),
    "codefiles.parse.bytes": ("bytes", "lower", _VERIFY),
    "codefiles.read.self_s": ("s", "lower", _VERIFY),
}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.errors"] = ("count", "lower", ("error_rate", "all"))
LAYER_METRICS["tracing.overhead_s"] = ("s", "lower", ("traced wall_norm_s minus untraced wall_norm_s", "all"))


class Tracer:
    """Span recorder.  One instance per traced process."""

    def __init__(self):
        self.names = []             # span name per name id
        self.job_ids = ["setup"]    # job id per job index
        # one column per span field: name id, start ns, end ns, parent
        # span index (-1 for none), job index
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_job = array("H")
        self.calls = {}
        self.total_ns = {}          # outermost spans of a name only
        self.self_ns = {}
        self.amounts = {}
        self.errors = dict.fromkeys(LAYERS, 0)
        self.matrix_in_apply = 0
        self._stack = []            # open span indices
        self._child_ns = []         # child time of each open span
        self._depth = {}            # open spans per name
        self._last_error = {}       # layer -> last exception counted

    def start_job(self, job_id):
        """Tag the spans that follow with a job id."""
        self.job_ids.append(job_id)

    def _register(self, name):
        if name not in self.calls:
            self.names.append(name)
            for table in (self.calls, self.total_ns, self.self_ns, self._depth):
                table[name] = 0

    def _wrap(self, name, fn):
        name_id = self.names.index(name)
        layer = name.split(".")[0]
        amount = AMOUNTS.get(name)
        stack, child_ns, depth = self._stack, self._child_ns, self._depth
        names, starts, ends, parents, jobs = (
            self.span_name, self.span_start, self.span_end,
            self.span_parent, self.span_job)
        clock = time.perf_counter_ns
        is_matrix = name == "matrices.Matrix"

        def traced(*args, **kwargs):
            if is_matrix and depth["subspaces.apply"]:
                self.matrix_in_apply += 1
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(len(self.job_ids) - 1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            child_ns.append(0)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if self._last_error.get(layer) is not exc:
                    self._last_error[layer] = exc
                    self.errors[layer] += 1
                raise
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                own_child = child_ns.pop()
                if child_ns:
                    child_ns[-1] += dur
                depth[name] -= 1
                if not depth[name]:
                    self.total_ns[name] += dur
                self.self_ns[name] += dur - own_child
                self.calls[name] += 1
                starts[idx] = start
                ends[idx] = end
            if amount is not None:
                key = f"{name}.{amount[0]}"
                self.amounts[key] = self.amounts.get(key, 0) + amount[1](args, result)
            return result

        return traced

    def install(self, package):
        """Wrap every target of the imported `package` (flagcodes)."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == package.__name__
                   or key.startswith(package.__name__ + ".")]
        for name, _, _ in TARGETS:
            self._register(name)
        for name, mod_name, attr in TARGETS:
            mod = sys.modules[f"{package.__name__}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)

    def _children_by_parent_name(self, parent_name, child_name) -> int:
        ids = {n: i for i, n in enumerate(self.names)}
        if parent_name not in ids or child_name not in ids:
            return 0
        pid, cid = ids[parent_name], ids[child_name]
        names = self.span_name
        return sum(1 for nid, parent in zip(names, self.span_parent)
                   if nid == cid and parent >= 0 and names[parent] == pid)

    def metrics(self, flag_members_verified: int) -> dict:
        """Per-layer values keyed by LAYER_METRICS name (tracing.overhead_s
        is added by the caller)."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total_ns[name] / 1e9
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        out.update(self.amounts)
        for layer, count in self.errors.items():
            out[f"{layer}.errors"] = count
        applies = self.calls.get("subspaces.apply", 0)
        out["matrices.Matrix_per_apply"] = (
            self.matrix_in_apply / applies if applies else 0)
        pairs = self.calls.get("flags.flag_distance", 0)
        out["flags.pairs_per_member"] = (
            pairs / flag_members_verified if flag_members_verified else 0)
        kept = self._children_by_parent_name(
            "constructions.spread_type_max_odfc", "flags.orbit_flag")
        scanned = self._children_by_parent_name(
            "constructions.spread_type_max_odfc", "flags.apply")
        out["constructions.max_scan_hit_ratio"] = kept / scanned if scanned else 0
        return {key: out.get(key, 0) for key in LAYER_METRICS
                if key != "tracing.overhead_s"}

    def write_spans(self, path):
        """Spans as gzip TSV: name, start_ns, end_ns, parent index, job."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tjob\n")
            names, jobs = self.names, self.job_ids
            rows = zip(self.span_name, self.span_start, self.span_end,
                       self.span_parent, self.span_job)
            for i, (nid, start, end, parent, job) in enumerate(rows):
                fh.write(f"{i}\t{names[nid]}\t{start}\t{end}\t{parent}\t{jobs[job]}\n")


def is_count(metric: str) -> bool:
    """Whether a per-layer metric is an exact count (repeats run to run)."""
    unit = LAYER_METRICS[metric][0]
    return unit in ("count", "bytes", "ratio")
