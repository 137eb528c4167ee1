package aggsvc

// JoinProbeInterval exposes the JOIN-wait liveness probe period to the
// external tests.
const JoinProbeInterval = joinProbeInterval
