package frontend

// RelayCost is relayCost, for the relay's timing tests.
const RelayCost = relayCost
