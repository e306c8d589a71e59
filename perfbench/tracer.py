"""Outside-in layer tracer for grfilt, installed in a job's own process.

The package is not changed: after `import grfilt.cli`, install() replaces
each named function with a timing wrapper, from outside.  Three details
keep the numbers honest:

* a function bound by `from .linalg import rref` is a separate name in
  every importing module, so every grfilt module attribute that is the
  original object is rebound to the wrapper;
* classmethods and staticmethods are re-wrapped as such, or calls such as
  `Subspace.from_vectors(amb, vecs)` would lose their implicit argument;
* a recursive call (assemble_growth_dossier("two-sided") calls itself)
  adds its inclusive time only at the outermost level, while self time is
  inclusive time minus the time spent in wrapped callees.

Names are "<module>.<function>" or "<module>.<Class>.<method>", relative to
the grfilt package.
"""

import functools
import inspect
import sys
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # name -> [calls, inclusive_s, self_s, raised]
        self.stats = {}
        self.counters = {}
        self._stack = []    # one [start, callee_s] frame per active call
        self._depth = {}    # name -> active nesting depth

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def pause(self, since):
        """Exclude the time since `since` from every active call."""
        spent = self.clock() - since
        for frame in self._stack:
            frame[0] += spent

    def wrap(self, name, fn, before=None, after=None):
        """Timing wrapper for fn.  before(tracer, args) may replace the
        positional arguments and after(tracer, result) may count; the time
        both take is excluded from every traced call."""
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name} is a generator; its time would be "
                            f"taken before its body runs")
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, depth, clock = self._stack, self._depth, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                t = clock()
                args = before(self, args)
                self.pause(t)
            frame = [clock(), 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[2] += elapsed - frame[1]
                if not depth[name]:
                    stats[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                t = clock()
                after(self, result)
                self.pause(t)
            return result

        return traced

    def snapshot(self):
        """Flat {metric: value}: .calls, .s, .self_s, .raised per function
        plus the counters."""
        out = dict(self.counters)
        for name, (calls, incl, own, raised) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = own
            out[f"{name}.raised"] = raised
        return out


def _rref_rows(tracer, args):
    """Count the rows fed to linalg.rref, their entries and nonzeros."""
    rows, field = args[0], args[1]
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
        args = (rows,) + tuple(args[1:])
    zero = field.zero
    entries = nonzeros = 0
    for r in rows:
        entries += len(r)
        # count() matches entries that are the field's zero object by
        # identity, without calling __eq__
        nonzeros += len(r) - r.count(zero)
    tracer.count("linalg.rref.rows_in", len(rows))
    tracer.count("linalg.rref.entries_in", entries)
    tracer.count("linalg.rref.nonzeros_in", nonzeros)
    return args


def _rref_pivots(tracer, result):
    tracer.count("linalg.rref.pivots_out", len(result[1]))


PROBES = {"linalg.rref": (_rref_rows, _rref_pivots)}


def install(tracer, names):
    """Wrap every named function of the imported grfilt in place."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "grfilt"
                                     or n.startswith("grfilt."))]
    for name in names:
        before, after = PROBES.get(name, (None, None))
        modname, *path = name.split(".")
        owner = sys.modules[f"grfilt.{modname}"]
        if len(path) == 1:
            original = getattr(owner, path[0])
            wrapped = tracer.wrap(name, original, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
        else:
            cls = getattr(owner, path[0])
            raw = cls.__dict__[path[1]]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(tracer.wrap(name, raw.__func__, before,
                                                after))
            else:
                wrapped = tracer.wrap(name, raw, before, after)
            setattr(cls, path[1], wrapped)
