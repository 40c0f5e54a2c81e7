import pytest

from m2i2 import trainer


class Interrupted(Exception):
    """Raised out of a training run right after one of its checkpoint saves."""


@pytest.fixture
def interrupt_after(monkeypatch):
    """interrupt_after(epoch, train, *args, **kwargs) runs train(*args,
    **kwargs) until that epoch's checkpoint is saved, then raises out of the
    run as a crash would, and returns the saved checkpoint's path."""

    def run(epoch, train, *args, **kwargs):
        save = trainer.save_checkpoint

        def save_then_interrupt(path, *rest):  # rest ends with the epoch
            save(path, *rest)
            if rest[-1] == epoch:
                raise Interrupted(path)

        with monkeypatch.context() as m:
            m.setattr(trainer, "save_checkpoint", save_then_interrupt)
            with pytest.raises(Interrupted) as stop:
                train(*args, **kwargs)
        return stop.value.args[0]

    return run
