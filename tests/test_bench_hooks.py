"""The benchmark's hooks against the code they wrap.

`perfbench/layers.py` names the functions its traced runs wrap and reads
attributes of the objects they return. A rename in `src` that leaves a
hook pointing at nothing fails here, before any benchmark run.
"""

import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import edgecache.cli as cli
from edgecache import bounds, caching, converse, model, phy
from placement_reference import en_bits

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
F = Fraction


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Tracer:
    """The part of perfbench's tracer that the result hooks write to."""

    def __init__(self):
        self.counters = Counter()


def test_every_traced_site_exists(layers):
    sites = layers.sites(cli, bounds, converse, model, phy)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in sites if attr not in vars(owner)]
    assert sites and missing == []


def test_trial_spans_are_named_from_run_trials_arguments(layers):
    config = model.validate_config(2, 2, 2, F(1), 1200)
    allocation = caching.full_placement(
        model.FileLibrary.random(config, seed=0), config)
    args = (config, allocation, model.Scheme.ZERO_FORCING,
            model.DemandVector.worst_case(config), 20.0, 1)
    phy.run_trial(*args)
    assert layers._trial_name(args) == "phy.trial.zf"


@pytest.mark.parametrize("placement,mu", [
    (caching.split_placement, F(1, 3)),
    (caching.full_placement, F(1)),
    (caching.shared_placement, F(1, 2)),
])
def test_byte_hooks_read_a_real_library_and_placement(layers, placement, mu):
    config = model.validate_config(3, 2, 4, mu, 48)
    library = model.FileLibrary.random(config, seed=1)
    tracer = Tracer()
    layers._library_bytes(tracer, library)
    assert tracer.counters["model.library_bytes"] == 4 * 48  # a byte per bit
    allocation = placement(library, config)
    layers._stored_bytes(tracer, allocation)
    assert tracer.counters["caching.stored_bytes"] == sum(
        en_bits(allocation, en) for en in range(1, 4))


def test_stored_bytes_reads_the_single_en_allocation(layers):
    config = model.validate_config(1, 1, 2, F(1), 48)
    allocation = cli._build_allocation(
        config, model.FileLibrary.random(config, seed=1))
    assert allocation.policy == "full"
    tracer = Tracer()
    layers._stored_bytes(tracer, allocation)
    assert tracer.counters["caching.stored_bytes"] == 2 * 48


def test_one_bounds_call_enters_the_traced_bounds_sites_once(monkeypatch,
                                                             tmp_path):
    """The `bounds.sweep` and `bounds.regions` spans time one call each,
    and the converse they both read is built once."""
    calls = Counter()
    for owner, name in ((cli, "tradeoff_sweep"), (cli, "optimality_regions"),
                        (bounds, "lower_bound_curve")):
        def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    assert cli.main(["bounds", "--m", "30", "--k", "30", "--json",
                     "--grid-step", "1/1800",
                     "--out", str(tmp_path / "b.csv")]) == cli.EXIT_OK
    assert calls == {"tradeoff_sweep": 1, "optimality_regions": 1,
                     "lower_bound_curve": 1}
