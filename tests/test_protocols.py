import json
import pickle
from pathlib import Path

import pytest

from popsim.cli import main
from popsim.core import Interaction, Protocol, Trial, apply_interaction, run_trial, sample_interaction
from popsim.influence import ScheduleRecorder
from popsim.protocols import CATALOG, ProtocolLoadError, load_protocol, make_protocol, protocol_from_dict
from popsim.rng import Splitmix64

PAIRWISE_DOC = {
    "name": "pairwise-elimination",
    "states": ["L", "F"],
    "initial": "L",
    "outputs": {"L": "L", "F": "F"},
    "rules": [["L", "L", "L", "F"]],
}


def test_catalog_protocols_well_formed_across_sizes():
    for name, entry in CATALOG.items():
        for n in (1, 2, 17, 1 << 20):
            proto = make_protocol(name, n)
            assert proto.name == name
            assert proto.num_states == 2
            assert 0 <= proto.initial_state < proto.num_states


def test_catalog_entries_carry_stop_and_start():
    n = 4

    def stops(name, states, threshold=None):
        entry = CATALOG[name]
        return entry.stop(n, threshold)(Trial(make_protocol(name, n), n, states))

    assert stops("pairwise-elimination", [1, 0, 1, 1])
    assert not stops("pairwise-elimination", [0, 0, 1, 1])
    assert stops("leave-init", [0, 1, 1, 1], threshold=2)
    assert not stops("leave-init", [0, 0, 1, 1], threshold=2)
    assert CATALOG["leave-init"].stop(n, None) is None
    assert stops("one-way-epidemic", [1, 1, 1, 1])
    assert not stops("one-way-epidemic", [1, 1, 0, 1])
    assert CATALOG["one-way-epidemic"].start(n) == [1, 0, 0, 0]
    assert CATALOG["pairwise-elimination"].start(n) is None
    assert CATALOG["leave-init"].start(n) is None


def test_make_protocol_unknown_name():
    with pytest.raises(ValueError, match="unknown protocol"):
        make_protocol("does-not-exist", 4)
    with pytest.raises(ValueError, match="unknown protocol"):
        make_protocol("does-not-exist", 0)


def test_make_protocol_shares_one_instance_across_sizes():
    for name in CATALOG:
        shared = make_protocol(name, 1)
        assert all(make_protocol(name, n) is shared for n in (2, 17, 1 << 20, 1 << 40))
        with pytest.raises(ValueError, match=">= 1"):
            make_protocol(name, 0)


def test_shared_protocol_with_its_mask_built_survives_pickling():
    # leave-init at n=50 turns null after about a hundred steps, so the run
    # scans for changes and builds the mask
    proto = make_protocol("leave-init", 50)
    record = run_trial(proto, 50, 3, max_steps=5000)
    assert proto._mask is not None
    copy = pickle.loads(pickle.dumps(proto))
    assert copy == proto and copy is not proto
    assert copy._mask.tolist() == proto._mask.tolist()
    assert run_trial(copy, 50, 3, max_steps=5000) == record


def test_pairwise_leader_count_never_increases_or_hits_zero():
    proto = make_protocol("pairwise-elimination", 6)
    rng = Splitmix64(8)
    config = [0] * 6
    leaders = 6
    for _ in range(500):
        e = sample_interaction(rng, 6)
        config = apply_interaction(proto, config, e)
        now = config.count(0)
        assert 1 <= now <= leaders
        leaders = now


def test_pairwise_two_agents_settle_after_one_interaction():
    proto = make_protocol("pairwise-elimination", 2)
    config = apply_interaction(proto, [0, 0], Interaction(0, 1))
    assert config == [0, 1]
    # any further interaction leaves the configuration alone
    for e in (Interaction(0, 1), Interaction(1, 0)):
        assert apply_interaction(proto, config, e) == config


def test_leave_init_count_drops_by_participants_in_init():
    proto = make_protocol("leave-init", 5)
    rng = Splitmix64(4)
    config = [0] * 5
    for _ in range(100):
        e = sample_interaction(rng, 5)
        before = config.count(0)
        touched = sum(1 for agent in (e.initiator, e.responder) if config[agent] == 0)
        config = apply_interaction(proto, config, e)
        assert before - config.count(0) == touched
        assert touched in (0, 1, 2)


def test_leave_init_step_reduces_count_with_enumerated_probability():
    # two agents still in init among five: 14 of the 20 ordered pairs touch one
    proto = make_protocol("leave-init", 5)
    config = [0, 0, 1, 1, 1]
    reducing = 0
    total = 0
    for u in range(5):
        for v in range(5):
            if u == v:
                continue
            total += 1
            after = apply_interaction(proto, config, Interaction(u, v))
            if after.count(0) < config.count(0):
                reducing += 1
    assert total == 20
    assert reducing == 14
    # and from all-init every single pair reduces the count
    all_init = [0] * 5
    assert all(
        apply_interaction(proto, all_init, Interaction(u, v)).count(0) < 5
        for u in range(5)
        for v in range(5)
        if u != v
    )


def test_epidemic_infected_count_monotone_and_grows_on_crossing_pairs():
    proto = make_protocol("one-way-epidemic", 6)
    rng = Splitmix64(10)
    config = [1, 0, 0, 0, 0, 0]
    for _ in range(300):
        e = sample_interaction(rng, 6)
        before = config.count(1)
        crossing = (config[e.initiator] == 1) != (config[e.responder] == 1)
        config = apply_interaction(proto, config, e)
        after = config.count(1)
        assert after >= before
        assert after - before == (1 if crossing else 0)


def test_epidemic_absorbs_at_all_infected():
    proto = make_protocol("one-way-epidemic", 8)
    rec = run_trial(
        proto,
        8,
        seed=12,
        stop_event=("all_infected", lambda t: t.counts[1] == 8),
        initial=[1] + [0] * 7,
    )
    assert not rec.truncated
    assert rec.event_steps["all_infected"] == rec.steps_taken


# ----------------------------------------------------------------------- loader


# The catalog protocols field by field, written out independently of their
# documents.
PINNED = {
    "pairwise-elimination": Protocol(
        2, 0, (((0, 1), (0, 1)), ((1, 0), (1, 1))), ("L", "F"), name="pairwise-elimination"
    ),
    "leave-init": Protocol(2, 0, (((1, 1), (1, 1)), ((1, 1), (1, 1))), ("F", "F"), name="leave-init"),
    "one-way-epidemic": Protocol(
        2, 0, (((0, 0), (1, 1)), ((1, 1), (1, 1))), ("F", "F"), name="one-way-epidemic"
    ),
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_documents_load_to_the_pinned_protocols(name):
    assert sorted(PINNED) == sorted(CATALOG)
    pinned = PINNED[name]
    for proto in (make_protocol(name, 4), protocol_from_dict(CATALOG[name].document)):
        assert proto._fields() == pinned._fields()
    # identical traces under the same seed
    rec_a, rec_b = ScheduleRecorder(4), ScheduleRecorder(4)
    ra = run_trial(make_protocol(name, 4), 4, seed=55, max_steps=30, observers=[rec_a])
    rb = run_trial(pinned, 4, seed=55, max_steps=30, observers=[rec_b])
    assert rec_a.log.entries == rec_b.log.entries
    assert ra.final_states == rb.final_states


def test_readme_protocol_file_example_is_the_catalog_document():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Protocol definition files", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == CATALOG["pairwise-elimination"].document


def test_loader_from_file(tmp_path):
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(PAIRWISE_DOC))
    proto = load_protocol(path)
    assert proto.name == "pairwise-elimination"


def test_loader_rejects_unknown_state_in_rule():
    doc = dict(PAIRWISE_DOC, rules=[["L", "X", "L", "F"]])
    with pytest.raises(ProtocolLoadError, match="'X'"):
        protocol_from_dict(doc)


def test_loader_rejects_missing_output():
    doc = dict(PAIRWISE_DOC, outputs={"L": "L"})
    with pytest.raises(ProtocolLoadError, match="outputs not total"):
        protocol_from_dict(doc)


def test_loader_rejects_duplicate_rule():
    doc = dict(PAIRWISE_DOC, rules=[["L", "L", "L", "F"], ["L", "L", "F", "F"]])
    with pytest.raises(ProtocolLoadError, match="duplicate rule"):
        protocol_from_dict(doc)


def test_loader_rejects_unknown_initial():
    doc = dict(PAIRWISE_DOC, initial="Z")
    with pytest.raises(ProtocolLoadError, match="'Z'"):
        protocol_from_dict(doc)


def test_loader_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ProtocolLoadError, match="not valid JSON"):
        load_protocol(path)


def test_loader_defaults_unlisted_pairs_to_identity():
    doc = dict(PAIRWISE_DOC, rules=[])
    proto = protocol_from_dict(doc)
    for a in range(2):
        for b in range(2):
            assert proto.transitions[a][b] == (a, b)


# (document, the field its error must name)
MALFORMED = {
    "rule-not-a-list": (dict(PAIRWISE_DOC, rules=[5]), "'rules'"),
    "rule-a-string": (dict(PAIRWISE_DOC, rules=["LLLF"]), "'rules'"),
    "rule-of-three": (dict(PAIRWISE_DOC, rules=[["L", "L", "F"]]), "'rules'"),
    "list-in-a-rule": (dict(PAIRWISE_DOC, rules=[["L", ["L"], "L", "F"]]), "'rules'"),
    "rules-a-string": (dict(PAIRWISE_DOC, rules="LLLF"), "'rules'"),
    "list-as-state-name": (dict(PAIRWISE_DOC, states=[["L"], "F"]), "'states'"),
    "states-a-string": (dict(PAIRWISE_DOC, states="LF", rules=["LLLF"]), "'states'"),
    "duplicate-states": (dict(PAIRWISE_DOC, states=["L", "F", "L"]), "'states'"),
    "initial-a-list": (dict(PAIRWISE_DOC, initial=["L"]), "'initial'"),
    "outputs-a-list": (dict(PAIRWISE_DOC, outputs=[["L", "L"], ["F", "F"]]), "'outputs'"),
    "states-missing": ({k: v for k, v in PAIRWISE_DOC.items() if k != "states"}, "'states'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_2_naming_the_field(tmp_path, capsys, case):
    doc, field = MALFORMED[case]
    with pytest.raises(ProtocolLoadError, match=field):
        protocol_from_dict(doc)
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--protocol-file", str(path), "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
