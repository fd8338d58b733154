"""Cross-shard channel: stamping, sequencing, deterministic merge."""

from repro.net.addressing import IPAddress
from repro.net.packet import Frame
from repro.sim.engine import Simulator
from repro.sim.shard import CutMessage, ShardGateway, merge_inbox


def _frame(n=0):
    return Frame(src=IPAddress(0x0A000001), dst=IPAddress(0x0A000002), payload=n)


def _msg(deliver_time, src_island, seq):
    return CutMessage(
        deliver_time=deliver_time,
        src_island=src_island,
        seq=seq,
        dst_island=0,
        vlan=1,
        src_switch="sw-0",
        frame=_frame(),
    )


def test_merge_inbox_orders_by_time_then_island_then_seq():
    msgs = [
        _msg(2.0, 1, 0),
        _msg(1.0, 2, 5),
        _msg(1.0, 1, 9),
        _msg(1.0, 1, 3),
    ]
    merged = merge_inbox(msgs)
    assert [m.merge_key for m in merged] == [
        (1.0, 1, 3), (1.0, 1, 9), (1.0, 2, 5), (2.0, 1, 0),
    ]
    # a pure function of the messages: any arrival permutation merges alike
    assert merge_inbox(reversed(msgs)) == merged


def test_gateway_stamps_deliver_time_one_lookahead_ahead():
    sim = Simulator()
    gw = ShardGateway(island_id=3, lookahead=0.25, sim=sim)
    sim.schedule(2.0, gw.send, 1, _frame(), "sw-0", 0)
    sim.run()
    (msg,) = gw.drain()
    assert msg.deliver_time == 2.25
    assert msg.src_island == 3 and msg.dst_island == 0


def test_gateway_seq_is_monotonic_across_drains():
    gw = ShardGateway(island_id=0, lookahead=0.1, sim=Simulator())
    gw.send(1, _frame(), None, 1)
    gw.send(1, _frame(), None, 2)
    first = gw.drain()
    assert gw.drain() == []  # drain clears
    gw.send(1, _frame(), None, 2)
    second = gw.drain()
    assert [m.seq for m in first + second] == [0, 1, 2]
    assert gw.sent == 3
