// Package errcmp_flag exercises every errcmp finding.
package errcmp_flag

import (
	"errors"
	"strings"
)

var (
	ErrNodeDown      = errors.New("node down")
	ErrDegradedWrite = errors.New("degraded write")
)

func Check(err error) bool {
	if err == ErrNodeDown { // want `== compared with ErrNodeDown`
		return true
	}
	return err != ErrDegradedWrite // want `!= compared with ErrDegradedWrite`
}

func Classify(err error) int {
	switch err {
	case ErrNodeDown: // want `switch case compares with sentinel ErrNodeDown`
		return 1
	case nil:
		return 0
	}
	return 2
}

// Classifying an error by its text: every form is flagged, because a file
// name or a wrapped message can spell the same words.
func ByText(detail string) int {
	switch {
	case strings.Contains(detail, ErrNodeDown.Error()): // want `strings.Contains for ErrNodeDown.Error\(\) classifies an error by its text`
		return 1
	case strings.Index(detail, ErrNodeDown.Error()) >= 0: // want `strings.Index for ErrNodeDown.Error\(\) classifies an error by its text`
		return 2
	case strings.HasPrefix(detail, ErrDegradedWrite.Error()): // want `strings.HasPrefix for ErrDegradedWrite.Error\(\) classifies`
		return 3
	case strings.HasSuffix(detail, (ErrDegradedWrite).Error()): // want `strings.HasSuffix for ErrDegradedWrite.Error\(\) classifies`
		return 4
	case strings.EqualFold(ErrNodeDown.Error(), detail): // want `strings.EqualFold for ErrNodeDown.Error\(\) classifies`
		return 5
	case detail == ErrNodeDown.Error(): // want `== against ErrNodeDown.Error\(\) classifies an error by its text`
		return 6
	case ErrDegradedWrite.Error() != detail: // want `!= against ErrDegradedWrite.Error\(\) classifies an error by its text`
		return 7
	}
	return 0
}
