"""Run configuration: one JSON document drives generation, the pipeline, and
reporting. Unknown keys anywhere in the document are errors, so typos fail
fast instead of silently running defaults, and every value is checked against
its field's annotation (see `mapping`). Every config type checks its own
values when it is built, from a document, in Python or by
`dataclasses.replace`, so a config that exists is valid; a message names the
value at fault by its dotted key in the document (`grid.horizon`)."""

from dataclasses import dataclass, field, replace

from . import mapping
from .dataset import MODALITIES, GeneratorConfig
from .decision import ContextWeights
from .errors import ConfigError
from .scenario import ModalityWeights
from .sim2real import MOVES, GridEnv, RandomizationConfig


@dataclass(frozen=True)
class GridSpec:
    """Base gridworld shared by the simulated and 'real' environments; the
    goal cell is placed per record, goal_distance cells from the start in the
    direction named by the winning decision."""

    width: int = 5
    height: int = 5
    start: tuple[int, int] = (2, 2)
    goal_distance: int = 2
    step_reward: float = -1.0
    goal_reward: float = 10.0
    slip_prob: float = 0.0
    horizon: int = 4
    real_step_reward: float = -1.2

    def __post_init__(self):
        for name in ("goal_distance", "width", "height", "horizon"):
            mapping.check_count(f"grid.{name}", getattr(self, name), 1)
        if self.horizon < self.goal_distance:
            raise ConfigError(f"grid.horizon {self.horizon} shorter than grid.goal_distance "
                              f"{self.goal_distance}")
        try:
            self.envs()
        except ConfigError as exc:
            raise ConfigError(f"grid: {exc}") from None

    def envs(self) -> tuple:
        """The unrandomized simulated and the real environment per goal
        direction, in action order; both are immutable, so every record of a
        run shares them."""
        x, y = self.start
        pairs = []
        for dx, dy in MOVES:
            sim_base = GridEnv(width=self.width, height=self.height, start=(x, y),
                               goal=(x + dx * self.goal_distance, y + dy * self.goal_distance),
                               step_reward=self.step_reward, goal_reward=self.goal_reward,
                               slip_prob=self.slip_prob, horizon=self.horizon)
            pairs.append((sim_base, replace(sim_base, step_reward=self.real_step_reward)))
        return tuple(pairs)


@dataclass(frozen=True)
class AlignConfig:
    steps: int = 300
    learning_rate: float = 0.05
    lambda_task: float = 0.1
    samples: int = 128  # trajectories rolled out per domain

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"align.steps must be >= 1, got {self.steps}")
        if self.samples < 1:
            raise ConfigError(f"align.samples must be >= 1, got {self.samples}")
        if self.learning_rate <= 0.0:
            raise ConfigError("align.learning_rate must be > 0")
        if self.lambda_task < 0.0:
            raise ConfigError("align.lambda_task must be >= 0")


def check_actions(generator: GeneratorConfig) -> None:
    """Each action is a grid move: checked on a run config's generator and on
    the one a run actually uses, a loaded file's `meta.generator`."""
    if generator.n_actions > len(MOVES):
        raise ConfigError(f"generator.n_actions must be <= {len(MOVES)}, the grid moves that "
                          f"realize actions, got {generator.n_actions}")


@dataclass(frozen=True)
class RunConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    dataset_path: str | None = None
    tau: float = 0.5
    weights: ModalityWeights = field(
        default_factory=lambda: ModalityWeights(0.6, 0.2, 0.2)
    )
    # one value per relevance dimension; zeros at run time when absent
    internal_state: tuple[float, float] | None = None
    instruction: tuple[float, float] | None = None
    m_count: int = 16
    k: int = 4
    noise_width: float = 0.1
    rel_threshold: float = 0.5
    beta: float = 0.3
    sparse_readout_top_n: int = 8
    sparse_readout_threshold: int = 64
    context_weights: tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    lambda_feedback: float = 0.4
    gamma: float = 0.95
    alpha: float = 0.5
    grid: GridSpec = field(default_factory=GridSpec)
    randomization: RandomizationConfig = field(default_factory=RandomizationConfig)
    align: AlignConfig = field(default_factory=AlignConfig)
    seed: int = 42
    workers: int = 1
    modalities: tuple[str, ...] = MODALITIES
    out_dir: str = "msr_out"

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        for name in ("internal_state", "instruction"):
            value = getattr(self, name)
            if value is not None and len(value) != 2:
                raise ConfigError(f"{name} must hold 2 values, got {len(value)}")
        check_actions(self.generator)
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must be in [0, 1], got {self.tau}")
        mapping.check_count("m_count", self.m_count, 1)
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.sparse_readout_top_n < 1:
            raise ConfigError(f"sparse_readout_top_n must be >= 1, "
                              f"got {self.sparse_readout_top_n}")
        if self.noise_width < 0.0:
            raise ConfigError(f"noise_width must be >= 0, got {self.noise_width}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 < self.rel_threshold < 1.0:
            raise ConfigError(f"rel_threshold must be in (0, 1), got {self.rel_threshold}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.alpha < 0.0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        ContextWeights(self.context_weights)  # rejects negative or all-zero weights
        if self.lambda_feedback < 0.0:
            raise ConfigError(f"lambda_feedback must be >= 0, got {self.lambda_feedback}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        bad = [m for m in self.modalities if m not in MODALITIES]
        if bad:
            raise ConfigError(f"unknown modalities {bad}")
        if not self.modalities:
            raise ConfigError("at least one modality required")

    @classmethod
    def from_mapping(cls, data: dict) -> "RunConfig":
        return mapping.from_mapping(cls, data, "")

    def to_mapping(self) -> dict:
        return {**mapping.to_mapping(self), "generator": self.generator.to_mapping()}
