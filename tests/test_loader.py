"""Instance loading: per-link columns, lazily built Links, and the eager loader
kept here as the reference for every load's result and every fault's message."""

import copy
import dataclasses
import json
import math
import pickle
import types
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrsched import GenConfig, Instance, Link, cli, gen_line, gen_random
from sinrsched.model import (
    INF,
    MetricSpace,
    _integer,
    _number,
    _overflow_message,
    _require,
    index_of,
    utility_from_dict,
    utility_to_dict,
)

# -- the eager loader, as it read every instance file before the columns ------


def reference_from_dict(data):
    """The eager loader: its entry loop word for word, then the checks its
    Instance constructor ran. Returns (metric, alpha, noise, p_max,
    allow_sub_unit_threshold, links), or raises what that loader raised."""
    _require(data, Mapping, "an object", "instance")
    metric = data.get("metric")
    _require(metric, Mapping, "an object", "metric")
    metric = MetricSpace.from_dict(metric)
    entries = data.get("links")
    _require(entries, list, "a list", "links")
    n_points = metric.n_points
    links = []
    # Exact JSON types are checked inline; the helpers run only to convert
    # an int-valued number or to raise, in the order of the fields below.
    for k, entry in enumerate(entries):
        if type(entry) is not dict:
            _require(entry, Mapping, "an object", None, k)
        get = entry.get
        sender, receiver = get("s"), get("r")
        if type(sender) is not int:
            sender = _integer(sender, "s", k)
        if type(receiver) is not int:
            receiver = _integer(receiver, "r", k)
        if not (0 <= sender < n_points and 0 <= receiver < n_points):
            key, node = ("s", sender) if not 0 <= sender < n_points else ("r", receiver)
            raise ValueError(f"links[{k}].{key}: node {node} is not in the metric")
        utility = get("utility")
        if utility is not None:
            _require(utility, Mapping, "an object", "utility", k)
            try:
                utility = utility_from_dict(utility)
            except KeyError as exc:
                raise ValueError(f"links[{k}].utility: missing field {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"links[{k}].utility: {exc}") from None
        lid, beta, demand, power = get("id"), get("beta"), get("demand"), get("power")
        if type(lid) is not int:
            lid = _integer(lid, "id", k)
        if type(beta) is not float and beta is not None:
            beta = _number(beta, "beta", k)
        if type(demand) is not float and demand is not None:
            demand = _number(demand, "demand", k)
        if type(power) is not float and power is not None:
            power = _number(power, "power", k)
        links.append(Link(lid, sender, receiver, beta, utility, demand, power))
    p_max = data.get("p_max", "inf")
    sub_unit = data.get("allow_sub_unit_threshold", False)
    _require(sub_unit, bool, "a boolean", "allow_sub_unit_threshold")
    return _reference_checks(
        metric=metric,
        alpha=_number(data.get("alpha"), "alpha"),
        noise=_number(data.get("noise"), "noise"),
        p_max=INF if p_max in ("inf", None) else _number(p_max, "p_max"),
        links=tuple(links),
        allow_sub_unit_threshold=sub_unit,
    )


def _reference_checks(metric, alpha, noise, links, p_max, allow_sub_unit_threshold):
    """The eager Instance constructor's checks, in its order."""
    if not 0 < alpha < INF:
        raise ValueError("path-loss exponent alpha must be finite and > 0")
    if not 0 < noise < INF:
        raise ValueError("ambient noise must be finite and strictly positive")
    if not p_max > 0:
        raise ValueError("p_max must be positive (math.inf for unlimited)")
    senders = np.array([link.sender for link in links], dtype=np.intp)
    receivers = np.array([link.receiver for link in links], dtype=np.intp)
    metric._check_nodes(senders, receivers)
    index_of([link.id for link in links])
    thresholds = np.array(
        [math.nan if link.threshold is None else link.threshold for link in links],
        dtype=np.float64,
    )
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        d_alpha = metric.between(metric.gather(receivers), metric.gather(senders), alpha)
        sens = thresholds * d_alpha
    bad = ~((d_alpha > 0) & (d_alpha < INF)) | (sens == INF)
    if not allow_sub_unit_threshold:
        bad |= thresholds < 1
    if bad.any():
        k = int(np.argmax(bad))
        link = links[k]
        if not 0 < d_alpha[k] < INF:
            with np.errstate(over="ignore"):  # its square may overflow
                length = metric.distance(receivers[k], senders[k])
            raise ValueError(
                f"link {link.id}: sender-receiver distance^alpha must be "
                f"{'finite' if d_alpha[k] > 0 else '> 0'} "
                f"(distance {length:g}, alpha {alpha:g})"
            )
        if sens[k] == INF:
            raise ValueError(_overflow_message(link.id, thresholds[k], d_alpha[k]))
        raise ValueError(
            f"link {link.id}: threshold {link.threshold} < 1 "
            "(set allow_sub_unit_threshold to permit)"
        )
    return metric, alpha, noise, p_max, allow_sub_unit_threshold, links


def reference_to_dict(inst, links):
    """The eager writer's instance JSON, read off the given Links."""
    entries = []
    for link in links:
        entry = {"id": link.id, "s": link.sender, "r": link.receiver}
        if link.threshold is not None:
            entry["beta"] = link.threshold
        if link.utility is not None:
            entry["utility"] = utility_to_dict(link.utility)
        if link.demand is not None:
            entry["demand"] = link.demand
        if link.fixed_power is not None:
            entry["power"] = link.fixed_power
        entries.append(entry)
    out = {
        "alpha": inst.alpha,
        "noise": inst.noise,
        "p_max": "inf" if inst.p_max == INF else inst.p_max,
        "metric": inst.metric.to_dict(),
        "links": entries,
    }
    if inst.allow_sub_unit_threshold:
        out["allow_sub_unit_threshold"] = True
    return out


def _same(x, y) -> bool:
    """Equal values of one type; floats bit for bit, so -0.0 is not 0.0."""
    if type(x) is not type(y):
        return False
    if isinstance(x, float):
        return np.float64(x).tobytes() == np.float64(y).tobytes()
    return x == y


# -- the differential test -----------------------------------------------------

STEP = {"family": "step", "steps": 2, "gamma_max": 8.0, "value_max": 2.0}
# small files with every per-link field present in some of them; gen_random
# writes floats only, so ints come from the edits below
BASES = [
    gen_random(GenConfig(n=3, seed=seed, area=100.0, d_range=(1.0, 20.0), power=50.0,
                         p_max=1e3, **extra)).to_dict()
    for seed, extra in ((1, {}), (2, {"utility": STEP, "demand_range": (0.5, 2.0)}),
                        (3, {"utility": {"family": "shannon"}, "demand_range": (0.5, 2.0)}))
]
ABSENT = object()  # an edit that deletes the field
HUGE = 10**400
NUMBERS = [0, 1, 2, 3, 7, -1, 2**63, -(2**70), HUGE, 0.0, -0.0, 0.5, 1.5, 2.0, 1e308,
           -2.0, math.nan, math.inf, -math.inf]
OTHERS = [None, True, False, "1", [], [1], {}, ABSENT]
UTILITIES = [
    {"type": "step", "steps": [[1.0, 2.0], [3, 4]]},
    {"type": "step", "steps": [[1, True]]},
    {"type": "step", "steps": [[HUGE, 1]]},
    {"type": "step"},
    {"type": "shannon", "scale": 2, "cutoff": 1.5},
    {"type": "shannon", "scale": math.inf},
    {"type": "shannon", "scale": "2"},
    {"type": "nope"},
]
LINK_FIELDS = ["id", "s", "r", "beta", "utility", "demand", "power"]
CONSTANTS = {
    "alpha": [2, 2.0, 3.5, 0, -1.0, math.inf, math.nan, "2", None, True, HUGE, ABSENT],
    "noise": [1, 0.5, 0.0, -1, math.inf, "1", None, False, ABSENT],
    "p_max": ["inf", None, 100, 1e3, 0, -5.0, math.nan, "x", True, HUGE, ABSENT],
    "allow_sub_unit_threshold": [True, False, 1, "x", None, ABSENT],
}


@st.composite
def edited_files(draw):
    """A base file with one to three edits: a link field set to a JSON value
    of any type (or deleted), a link entry replaced, a constant set, or a
    link's length zeroed or its threshold set low."""
    data = json.loads(json.dumps(draw(st.sampled_from(BASES))))  # a copy
    links = data["links"]
    n_points = len(data["metric"]["points"])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["field", "field", "field", "same", "entry", "constant",
                                     "length", "length"]))
        k = draw(st.integers(0, len(links) - 1))
        if kind == "length":  # a fault the instance finds: a zero length or a low threshold
            points = data["metric"]["points"]
            if draw(st.booleans()):  # link k's receiver, node 2k + 1, onto its sender
                points[2 * k + 1] = list(points[2 * k])
            elif isinstance(links[k], dict):
                links[k]["beta"] = draw(st.sampled_from([0.5, 0, -1.0, 1e308]))
            continue
        if kind == "constant":
            key = draw(st.sampled_from(sorted(CONSTANTS)))
            target, value = data, draw(st.sampled_from(CONSTANTS[key]))
        elif kind == "entry":
            links[k] = draw(st.sampled_from([7, None, [], "x"]))
            continue
        elif kind == "same":  # a repeated id, sender == receiver, or a node at the edge
            other = links[(k + 1) % len(links)]
            target = links[k]
            if not isinstance(target, dict) or not isinstance(other, dict):
                continue
            key, value = draw(st.sampled_from([("id", other.get("id")), ("r", target.get("s")),
                                               ("s", n_points), ("r", n_points - 1)]))
        else:
            key = draw(st.sampled_from(LINK_FIELDS))
            pool = UTILITIES + OTHERS if key == "utility" else NUMBERS + OTHERS
            target, value = links[k], draw(st.sampled_from(pool))
        if not isinstance(target, dict):
            continue
        if value is ABSENT:
            target.pop(key, None)
        else:
            target[key] = value
    return data


def _outcome(load, data):
    try:
        return load(data)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return exc


@given(data=edited_files())
@settings(max_examples=400, deadline=None)
def test_loads_match_the_eager_loader(data):
    want = _outcome(reference_from_dict, data)
    got = _outcome(Instance.from_dict, data)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    metric, alpha, noise, p_max, sub_unit, links = want
    assert (got.metric, got.alpha, got.noise, got.p_max, got.allow_sub_unit_threshold) == (
        metric, alpha, noise, p_max, sub_unit)
    # every entry is a JSON object, so the load filled the columns and built
    # no Link
    assert "links" not in vars(got)
    assert got.to_dict() == reference_to_dict(got, links)
    assert len(got.links) == len(links)
    for mine, theirs in zip(got.links, links):
        for field in dataclasses.fields(Link):
            assert _same(getattr(mine, field.name), getattr(theirs, field.name)), field.name
    assert got == Instance(metric, alpha, noise, links, p_max, sub_unit)


class _Id(int):
    """An int subclass, such as a caller's own id type."""


# entries that are no plain JSON, each as a caller may hand them in; the
# eager loader took each of them
NON_JSON_EDITS = {
    "mapping-proxy": lambda links: links.__setitem__(1, types.MappingProxyType(links[1])),
    "numpy-floats": lambda links: links[0].update(
        beta=np.float64(2.5), demand=np.float64(0.75), power=np.float64(40.0)),
    "int-subclass-id": lambda links: links[2].update(id=_Id(7)),
    "numpy-int-sender": lambda links: links[0].update(s=np.int64(0)),
}


@pytest.mark.parametrize("edit", NON_JSON_EDITS.values(), ids=NON_JSON_EDITS)
def test_non_json_entries_load_as_the_eager_loader_loads_them(edit):
    data = json.loads(json.dumps(BASES[1]))  # every per-link field present
    edit(data["links"])
    want = _outcome(reference_from_dict, data)
    got = _outcome(Instance.from_dict, data)
    if isinstance(want, Exception):
        # numpy's ints are not ints to the loader
        assert str(want) == "links[0].s must be an integer, got int64"
        assert type(got) is type(want) and str(got) == str(want)
        return
    links = want[-1]
    assert "links" not in vars(got)
    assert got.to_dict() == reference_to_dict(got, links)
    for mine, theirs in zip(got.links, links):
        for field in dataclasses.fields(Link):
            assert _same(getattr(mine, field.name), getattr(theirs, field.name)), field.name


@pytest.mark.parametrize("points", [[], [[0.0, 0.0]]], ids=["no-points", "one-point"])
def test_a_file_without_links_loads(points):
    data = {"alpha": 2.0, "noise": 1.0, "links": [],
            "metric": {"type": "euclidean", "dim": 2, "points": points}}
    assert reference_from_dict(data)[-1] == ()
    inst = Instance.from_dict(data)
    assert inst.link_ids == () and inst.metric.n_points == len(points)
    assert inst.to_dict() == reference_to_dict(inst, ())


# -- the contract of lazily built Links ----------------------------------------


def _instances():
    """Loaded and generated instances with every per-link field, and ids of
    any size."""
    data = json.loads(json.dumps(BASES[1]))
    for entry, lid in zip(data["links"], (-5, 2**64 + 1, 10**30)):
        entry["id"] = lid
    data["links"][0]["beta"] = 3  # an int-valued number converts to 3.0
    data["links"][1].pop("beta")
    yield Instance.from_dict(data)
    yield gen_random(GenConfig(n=4, seed=9, utility={"family": "shannon"},
                               demand_range=(0.5, 2.0), p_max=1e3, power="sqrt"))
    yield gen_line([(0.0, 1.0, 1.0), (3.0, 5.0, 2)])


@pytest.mark.parametrize("inst", list(_instances()), ids=["loaded", "generated", "line"])
def test_lazy_links_equal_the_eager_instance_everywhere(inst):
    assert "links" not in vars(inst)
    ids = inst.link_ids
    data = inst.to_dict()
    copies = [pickle.loads(pickle.dumps(inst)), copy.copy(inst), copy.deepcopy(inst)]
    # the writer and the copies read the columns
    assert all("links" not in vars(x) for x in (inst, *copies))
    links = inst.links
    assert vars(inst)["links"] is links is inst.links  # built once, then kept
    eager = Instance(inst.metric, inst.alpha, inst.noise, links, inst.p_max,
                     inst.allow_sub_unit_threshold)
    assert eager.to_dict() == data == reference_to_dict(inst, links)
    assert tuple(link.id for link in links) == ids == eager.link_ids
    fresh = Instance.from_dict(json.loads(json.dumps(data)))
    for other in (eager, fresh, dataclasses.replace(fresh), pickle.loads(pickle.dumps(eager)),
                  copy.copy(eager), copy.deepcopy(eager), *copies):
        assert other == inst and inst == other
        assert hash(other) == hash(inst)
        # a metric space's repr is its address
        assert repr(other).replace(repr(other.metric), "") == repr(inst).replace(
            repr(inst.metric), "")
        for mine, theirs in zip(other.links, links):
            for field in dataclasses.fields(Link):
                assert _same(getattr(mine, field.name), getattr(theirs, field.name))
    if data["links"][0]["id"] == -5:
        assert [type(link.threshold) for link in links] == [float, type(None), float]
        assert links[0].threshold == 3.0 and ids == (-5, 2**64 + 1, 10**30)


def test_link_reads_build_links_once():
    inst = gen_random(GenConfig(n=3, seed=4))
    link = inst.link(2)
    assert link == Link(2, 4, 5, inst.thresholds[2].item())
    assert inst.link(2) is link is inst.links[2]
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        inst.nope
    # links is a descriptor on the class: a __getattr__ hook would take every
    # attribute read of an instance off the interpreter's specialized path
    assert not hasattr(Instance, "__getattr__")
    assert Instance.__getattribute__ is object.__getattribute__


# -- no package path builds a Link ----------------------------------------------


def test_no_command_builds_a_link(tmp_path, capsys, monkeypatch):
    built = []
    init = Link.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Link, "__init__", counted)
    plain, rates = tmp_path / "plain.json", tmp_path / "rates.json"
    gen = ["gen", "--n", "24", "--seed", "3", "--pmax", "18000", "--power", "18000"]
    utility = json.dumps({"family": "step", "steps": 3, "gamma_max": 32.0, "value_max": 2.0})
    commands = [
        [*gen, "--out", str(plain)],
        [*gen, "--utility", utility, "--demand-min", "0.5", "--demand-max", "3",
         "--out", str(rates)],
    ]
    for algorithm in ("unlimited", "fixed", "limited", "flexible"):
        instance = rates if algorithm == "flexible" else plain
        for trace in ([], ["--trace"]):
            artifact = tmp_path / f"{algorithm}{len(trace)}.json"
            commands += [
                ["solve", "--instance", str(instance), "--algorithm", algorithm, *trace,
                 "--out", str(artifact)],
                ["verify", "--instance", str(instance), "--artifact", str(artifact)],
            ]
    schedule = tmp_path / "schedule.json"
    commands += [
        ["schedule", "--instance", str(rates), "--out", str(schedule)],
        ["verify", "--instance", str(rates), "--artifact", str(schedule)],
        ["experiment", "--name", "ratio", "--n", "4", "--trials", "3"],
        ["experiment", "--name", "reverse", "--trials", "3"],
        ["oracle", "--instance", str(plain)],
        ["oracle", "--instance", str(plain), "--subset", "0,1,2,3,4,5", "--brute", "fixed"],
        ["oracle", "--instance", str(rates), "--subset", "0,1,2,3", "--brute", "flexible_fixed"],
    ]
    for argv in commands:
        assert cli.main(argv) == cli.EXIT_OK, (argv, capsys.readouterr().err)
    assert capsys.readouterr().out.count("ok\n") == 9
    assert built == []
