import pytest

from bergerflow import model


@pytest.fixture
def counting_body(monkeypatch):
    """plant(owner, attr) sets the formula body owner.attr (a FlowKind
    member's field, spinor or speed) to a copy of it
    whose first point line records the point arguments of each evaluation,
    then calls hook(points) if one is given; returns the list of recorded
    points.  The copy runs the stock text, so it gives the stock bits.  A
    run reads its bodies when it starts, so every run after the plant
    compiles the copy's text."""

    def plant(owner, attr, hook=None):
        stock, points = getattr(owner, attr), []
        text = stock.text

        def record(*point):
            points.append(point)
            if hook is not None:
                hook(points)

        point = f"record({text.args})\n{text.point}"
        name = f"{stock.__name__}_counted"
        body = model._body(name, text.args, text.head, point, text.value, **text.env, record=record)
        monkeypatch.setattr(owner, attr, body)
        return points

    return plant
