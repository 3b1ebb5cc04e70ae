"""Exception types shared across the package."""


class RlschedError(Exception):
    """Base class for all package errors."""


class ConfigError(RlschedError):
    """Invalid or inconsistent configuration (bad keys, impossible dimensions,
    jobs that can never fit the cluster, mismatched checkpoints)."""


class InvalidActionError(RlschedError):
    """Action index outside [0, queue_slots]."""


class EpisodeFinished(RlschedError):
    """step() called after the episode has ended."""


class SpecError(RlschedError):
    """Invalid workload specification."""


class ParseError(RlschedError):
    """A CSV input (a job trace, a results file) could not be parsed;
    carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ConfigError):
    """A job violates the job invariants; carries the job id."""

    def __init__(self, message, job_id=None):
        self.job_id = job_id
        if job_id is not None:
            message = f"job {job_id}: {message}"
        super().__init__(message)


class ShapeError(RlschedError):
    """Array shape does not match the declared layer chain."""


class TrainingDiverged(RlschedError):
    """Loss blew up or produced NaN; carries the episode index."""

    def __init__(self, message, episode=None):
        self.episode = episode
        if episode is not None:
            message = f"episode {episode}: {message}"
        super().__init__(message)


class IncompleteJob(RlschedError):
    """Metric requested for a job that has not finished."""


class NotStarted(RlschedError):
    """Metric requested for a job that has not started."""
