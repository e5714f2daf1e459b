package driver

import (
	"sqalpel/internal/metrics"
	"sqalpel/internal/repository"
)

// RunOnce requests one task, measures it on the target and reports the
// result. It returns false when no task was available. A report rejected
// because the lease was lost in the meantime (expired and re-queued to
// another driver) is not an error: the result is dropped and the loop
// carries on — that is the designed recovery path, not a driver failure.
func (c *Client) RunOnce(target metrics.Target) (bool, error) {
	c.enableTrace(target)
	task, err := c.RequestTask()
	if err != nil {
		return false, err
	}
	if task == nil {
		return false, nil
	}
	_, err = c.report([]*repository.Task{task}, []*metrics.Measurement{c.measure(target, task)})
	return true, err
}

// Config returns the client configuration.
func (c *Client) Config() Config { return c.cfg }
