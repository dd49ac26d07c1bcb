"""A live month of the cloud service: arrivals, revisions, departures.

Replays the paper's Example 3 plus an upward bid revision through a
one-game :class:`repro.fleet.FleetEngine` (the AddOn service loop),
printing the event log and the ledger.
Watch the cost-share fall from $100 to $25 as later users join, and the
cloud end the month with a surplus (it over-recovers; it never loses).

Run:  python examples/online_arrivals.py
"""

from repro import AdditiveBid
from repro.cloudsim import OptimizationCatalog
from repro.fleet import FleetEngine


def main() -> None:
    catalog = OptimizationCatalog.from_costs({"hot-partition-index": 100.0})
    service = FleetEngine(catalog, horizon=3)

    print("slot 0: two users sign up for the coming month")
    service.place_bid("ursula", "hot-partition-index", AdditiveBid.over(1, [101.0]))
    service.place_bid(
        "victor", "hot-partition-index", AdditiveBid.over(1, [16.0, 16.0, 16.0])
    )

    service.advance_slot()
    print("slot 1 processed: only ursula's residual covers the cost;"
          " she departs paying $100")

    print("slot 1: two more users arrive for slot 2, and victor revises"
          " his slot-3 value upward")
    service.place_bid("wanda", "hot-partition-index", AdditiveBid.over(2, [26.0]))
    service.place_bid("xavier", "hot-partition-index", AdditiveBid.over(2, [26.0]))
    service.revise_bid("victor", "hot-partition-index", {3: 20.0})

    report = service.run_to_end()

    print("\nEvent log:")
    for event in report.events.all():
        print(f"  t={event.slot}: {type(event).__name__} {event}")

    print("\nLedger:")
    for entry in report.ledger.entries:
        sign = "+" if entry.amount >= 0 else "-"
        print(
            f"  t={entry.slot} {entry.kind:<8} {str(entry.party):<22} "
            f"{sign}${abs(entry.amount):.2f} {entry.memo}"
        )
    print(f"\ncloud revenue ${report.ledger.revenue:.2f} "
          f"against ${report.ledger.outlays:.2f} of builds "
          f"-> balance ${report.cloud_balance:+.2f} (never negative)")
    for user in ("ursula", "victor", "wanda", "xavier"):
        print(f"  {user:>7} paid ${report.payments.get(user, 0.0):.2f}")


if __name__ == "__main__":
    main()
