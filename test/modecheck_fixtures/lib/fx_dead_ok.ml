let kept x = x + 1
