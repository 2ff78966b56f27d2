package nn

import (
	"fmt"
	"math"

	"shredder/internal/tensor"
)

// SoftmaxInto writes the row-wise softmax probabilities of logits of shape
// [N, M] into dst, computed with the max-subtraction trick for numerical
// stability. dst must have logits' shape and may be logits itself; it
// returns dst.
func SoftmaxInto(dst, logits *tensor.Tensor) *tensor.Tensor {
	if logits.Rank() != 2 || !dst.SameShape(logits) {
		panic(fmt.Sprintf("nn: SoftmaxInto %v from logits %v, want one [N, M] shape", dst.Shape(), logits.Shape()))
	}
	n, m := logits.Dim(0), logits.Dim(1)
	ld, od := logits.Data(), dst.Data()
	for i := 0; i < n; i++ {
		row := ld[i*m : (i+1)*m]
		orow := od[i*m : (i+1)*m]
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - mx)
			orow[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range orow {
			orow[j] *= inv
		}
	}
	return dst
}

// CrossEntropy computes the mean softmax cross-entropy loss over a batch
// and the gradient with respect to the logits. labels[i] is the class index
// of sample i. The returned gradient is already divided by the batch size,
// so optimizer steps are batch-size invariant.
func CrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	grad = tensor.New(logits.Dim(0), logits.Dim(1))
	return CrossEntropyInto(grad, logits, labels), grad
}

// CrossEntropyInto is CrossEntropy writing the gradient into grad, which must
// have logits' shape: a training loop keeps one gradient tensor per batch
// size.
func CrossEntropyInto(grad, logits *tensor.Tensor, labels []int) (loss float64) {
	n, m := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: CrossEntropy got %d labels for batch of %d", len(labels), n))
	}
	gd := SoftmaxInto(grad, logits).Data()
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		y := labels[i]
		if y < 0 || y >= m {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, m))
		}
		loss -= math.Log(math.Max(gd[i*m+y], 1e-300))
		gd[i*m+y] -= 1
	}
	grad.Scale(invN)
	return loss * invN
}

// SoftCrossEntropyInto computes the mean cross-entropy against a full target
// distribution of shape [N, M] (soft labels), used by the self-supervised
// noise-training mode where targets are the unnoised model's own softmax
// outputs. It returns the loss and writes the gradient w.r.t. the logits into
// grad, which must have logits' shape.
func SoftCrossEntropyInto(grad, logits, target *tensor.Tensor) (loss float64) {
	if !logits.SameShape(target) {
		panic(fmt.Sprintf("nn: SoftCrossEntropyInto shape mismatch %v vs %v", logits.Shape(), target.Shape()))
	}
	gd, td := SoftmaxInto(grad, logits).Data(), target.Data()
	invN := 1 / float64(logits.Dim(0))
	for i, p := range gd {
		loss -= td[i] * math.Log(math.Max(p, 1e-300))
		gd[i] = (p - td[i]) * invN
	}
	return loss * invN
}

// Accuracy returns the fraction of rows whose argmax equals the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n := logits.Dim(0)
	if n == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		if logits.Slice(i).Argmax() == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
